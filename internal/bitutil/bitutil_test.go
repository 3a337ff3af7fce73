package bitutil

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPopCountSmall(t *testing.T) {
	cases := []struct {
		in   []byte
		want int
	}{
		{nil, 0},
		{[]byte{0}, 0},
		{[]byte{0xff}, 8},
		{[]byte{0x01, 0x80}, 2},
		{[]byte{0xaa, 0x55, 0xf0, 0x0f}, 16},
		{make([]byte, 64), 0},
	}
	for _, c := range cases {
		if got := PopCount(c.in); got != c.want {
			t.Errorf("PopCount(%v) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestPopCountAllOnes64(t *testing.T) {
	b := make([]byte, 64)
	for i := range b {
		b[i] = 0xff
	}
	if got := PopCount(b); got != 512 {
		t.Errorf("PopCount(64x0xff) = %d, want 512", got)
	}
}

func TestHammingBasics(t *testing.T) {
	a := []byte{0x00, 0xff, 0xaa}
	b := []byte{0x00, 0x00, 0x55}
	if got := Hamming(a, b); got != 16 {
		t.Errorf("Hamming = %d, want 16", got)
	}
	if got := Hamming(a, a); got != 0 {
		t.Errorf("Hamming(a,a) = %d, want 0", got)
	}
}

func TestHammingMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Hamming on mismatched lengths did not panic")
		}
	}()
	Hamming([]byte{1}, []byte{1, 2})
}

// Property: Hamming(a,b) == PopCount(a XOR b).
func TestHammingMatchesXorPopcount(t *testing.T) {
	f := func(a, b []byte) bool {
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		a, b = a[:n], b[:n]
		x := make([]byte, n)
		XOR(x, a, b)
		return Hamming(a, b) == PopCount(x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHammingRange(t *testing.T) {
	a := []byte{0xff, 0x00, 0xff, 0x00}
	b := []byte{0x00, 0x00, 0x00, 0x00}
	if got := HammingRange(a, b, 1, 2); got != 8 {
		t.Errorf("HammingRange = %d, want 8", got)
	}
	if got := HammingRange(a, b, 0, 4); got != 16 {
		t.Errorf("HammingRange full = %d, want 16", got)
	}
}

func TestXORAliasing(t *testing.T) {
	a := []byte{0xf0, 0x0f}
	b := []byte{0xff, 0xff}
	XOR(a, a, b) // dst aliases a
	if a[0] != 0x0f || a[1] != 0xf0 {
		t.Errorf("aliased XOR produced %v", a)
	}
}

func TestInvert(t *testing.T) {
	src := []byte{0x00, 0xff, 0xa5}
	dst := make([]byte, 3)
	Invert(dst, src)
	want := []byte{0xff, 0x00, 0x5a}
	if !Equal(dst, want) {
		t.Errorf("Invert = %v, want %v", dst, want)
	}
	// Involution property.
	Invert(dst, dst)
	if !Equal(dst, src) {
		t.Errorf("double Invert = %v, want %v", dst, src)
	}
}

func TestGetSetBit(t *testing.T) {
	b := make([]byte, 4)
	for _, i := range []int{0, 1, 7, 8, 15, 31} {
		if GetBit(b, i) {
			t.Errorf("bit %d set in zero buffer", i)
		}
		SetBit(b, i, true)
		if !GetBit(b, i) {
			t.Errorf("bit %d not set after SetBit", i)
		}
		SetBit(b, i, false)
		if GetBit(b, i) {
			t.Errorf("bit %d still set after clear", i)
		}
	}
}

func TestWordHelpers(t *testing.T) {
	line := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	w := Word(line, 2, 1)
	if w[0] != 3 || w[1] != 4 {
		t.Errorf("Word(2,1) = %v", w)
	}
	other := Clone(line)
	other[2] = 99
	if WordsEqual(line, other, 2, 1) {
		t.Error("WordsEqual true for differing word")
	}
	if !WordsEqual(line, other, 2, 0) {
		t.Error("WordsEqual false for identical word")
	}
	CopyWord(line, other, 2, 1)
	if line[2] != 99 {
		t.Error("CopyWord did not copy")
	}
}

func TestRotateLeftSimple(t *testing.T) {
	b := []byte{0x01} // bit 0 set
	r := RotateLeft(b, 1)
	if r[0] != 0x02 {
		t.Errorf("RotateLeft(0x01,1) = %#x, want 0x02", r[0])
	}
	r = RotateLeft(b, 8) // full rotation
	if r[0] != 0x01 {
		t.Errorf("RotateLeft(0x01,8) = %#x, want 0x01", r[0])
	}
	r = RotateLeft(b, -1) // wrap to MSB
	if r[0] != 0x80 {
		t.Errorf("RotateLeft(0x01,-1) = %#x, want 0x80", r[0])
	}
}

func TestRotateCrossesBytes(t *testing.T) {
	b := []byte{0x80, 0x00} // bit 7
	r := RotateLeft(b, 1)   // -> bit 8
	if r[0] != 0x00 || r[1] != 0x01 {
		t.Errorf("RotateLeft crossing byte = %v", r)
	}
}

// Property: RotateRight undoes RotateLeft for any shift.
func TestRotateRoundTrip(t *testing.T) {
	f := func(b []byte, k int) bool {
		if len(b) == 0 {
			return true
		}
		return Equal(RotateRight(RotateLeft(b, k), k), b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: rotation preserves popcount.
func TestRotatePreservesPopcount(t *testing.T) {
	f := func(b []byte, k int) bool {
		return PopCount(RotateLeft(b, k)) == PopCount(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: rotating by a then b equals rotating by a+b.
func TestRotateComposes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		b := make([]byte, 1+rng.Intn(80))
		rng.Read(b)
		x, y := rng.Intn(1000)-500, rng.Intn(1000)-500
		got := RotateLeft(RotateLeft(b, x), y)
		want := RotateLeft(b, x+y)
		if !Equal(got, want) {
			t.Fatalf("rotate compose failed for len=%d x=%d y=%d", len(b), x, y)
		}
	}
}

func TestVectorBasics(t *testing.T) {
	v := NewVector(35)
	if v.Len() != 35 {
		t.Fatalf("Len = %d", v.Len())
	}
	if v.PopCount() != 0 {
		t.Fatalf("fresh vector popcount = %d", v.PopCount())
	}
	v.Set(0, true)
	v.Set(34, true)
	if !v.Get(0) || !v.Get(34) || v.Get(17) {
		t.Error("Get/Set mismatch")
	}
	if v.PopCount() != 2 {
		t.Errorf("popcount = %d, want 2", v.PopCount())
	}
}

func TestVectorSetAll(t *testing.T) {
	v := NewVector(35)
	v.SetAll(true)
	if v.PopCount() != 35 {
		t.Errorf("SetAll(true) popcount = %d, want 35 (padding must stay clear)", v.PopCount())
	}
	v.SetAll(false)
	if v.PopCount() != 0 {
		t.Errorf("SetAll(false) popcount = %d", v.PopCount())
	}
}

func TestVectorBoundsPanic(t *testing.T) {
	v := NewVector(8)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range Get did not panic")
		}
	}()
	v.Get(8)
}

func BenchmarkHamming64(b *testing.B) {
	x := make([]byte, 64)
	y := make([]byte, 64)
	rand.New(rand.NewSource(1)).Read(x)
	rand.New(rand.NewSource(2)).Read(y)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Hamming(x, y)
	}
}
