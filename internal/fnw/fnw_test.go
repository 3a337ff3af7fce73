package fnw

import (
	"math/rand"
	"testing"
	"testing/quick"

	"deuce/internal/bitutil"
)

// encode is EncodeInto into fresh buffers sized like the inputs.
func encode(c *Codec, stored, flips, logical []byte) (newData, newFlips []byte) {
	newData, newFlips = make([]byte, len(logical)), make([]byte, len(flips))
	c.EncodeInto(newData, newFlips, stored, flips, logical)
	return newData, newFlips
}

// decode is DecodeInto into a fresh buffer.
func decode(c *Codec, stored, flips []byte) []byte {
	out := make([]byte, len(stored))
	c.DecodeInto(out, stored, flips)
	return out
}

func TestNewValidation(t *testing.T) {
	for _, w := range []int{1, 2, 4, 8} {
		if _, err := New(w); err != nil {
			t.Errorf("New(%d): %v", w, err)
		}
	}
	for _, w := range []int{0, 3, 16, -2} {
		if _, err := New(w); err == nil {
			t.Errorf("New(%d) accepted", w)
		}
	}
}

func TestEncodeDecodeIdentity(t *testing.T) {
	c := MustNew(2)
	stored := make([]byte, 64)
	flips := make([]byte, 4)
	logical := make([]byte, 64)
	rand.New(rand.NewSource(9)).Read(logical)
	newData, newFlips := encode(c, stored, flips, logical)
	if !bitutil.Equal(decode(c, newData, newFlips), logical) {
		t.Fatal("decode(encode(x)) != x")
	}
}

// Property: round-trip through arbitrary prior state, all granularities.
func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64, wIdx uint8) bool {
		c := MustNew([]int{1, 2, 4, 8}[wIdx%4])
		rng := rand.New(rand.NewSource(seed))
		stored := make([]byte, 64)
		flips := make([]byte, (c.Words(64)+7)/8)
		rng.Read(stored)
		rng.Read(flips)
		logical := make([]byte, 64)
		rng.Read(logical)
		d, fl := encode(c, stored, flips, logical)
		return bitutil.Equal(decode(c, d, fl), logical)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Invariant 3 from DESIGN.md: per-word cost never exceeds ⌊(w+1)/2⌋.
func TestFlipBound(t *testing.T) {
	for _, wb := range []int{1, 2, 4, 8} {
		c := MustNew(wb)
		rng := rand.New(rand.NewSource(int64(wb)))
		bound := c.MaxFlipsPerWord()
		for trial := 0; trial < 200; trial++ {
			stored := make([]byte, wb)
			flips := make([]byte, 1)
			logical := make([]byte, wb)
			rng.Read(stored)
			rng.Read(flips)
			flips[0] &= 1
			rng.Read(logical)
			got := c.CountFlips(stored, flips, logical)
			if got > bound {
				t.Fatalf("w=%d: cost %d exceeds bound %d", wb, got, bound)
			}
		}
	}
}

// The worst case for plain DCW: inverting every bit. FNW must store the
// complement and pay only the flip-bit changes.
func TestAllBitsInverted(t *testing.T) {
	c := MustNew(2)
	stored := make([]byte, 64) // zeros, flip bits zero
	flips := make([]byte, 4)
	logical := make([]byte, 64)
	for i := range logical {
		logical[i] = 0xff
	}
	newData, newFlips := encode(c, stored, flips, logical)
	// Stored image should remain all zeros with every flip bit set.
	if bitutil.PopCount(newData) != 0 {
		t.Errorf("stored data popcount = %d, want 0", bitutil.PopCount(newData))
	}
	if bitutil.PopCount(newFlips) != 32 {
		t.Errorf("flip bits set = %d, want 32", bitutil.PopCount(newFlips))
	}
	if got := bitutil.Hamming(stored, newData) + bitutil.PopCount(newFlips); got != 32 {
		t.Errorf("total cost = %d, want 32", got)
	}
}

func TestNoChangeWriteCostsZero(t *testing.T) {
	c := MustNew(2)
	rng := rand.New(rand.NewSource(4))
	logical := make([]byte, 64)
	rng.Read(logical)
	stored := make([]byte, 64)
	flips := make([]byte, 4)
	d1, f1 := encode(c, stored, flips, logical)
	if got := c.CountFlips(d1, f1, logical); got != 0 {
		t.Errorf("rewriting identical value costs %d, want 0", got)
	}
	d2, f2 := encode(c, d1, f1, logical)
	if !bitutil.Equal(d2, d1) || !bitutil.Equal(f2, f1) {
		t.Error("identical rewrite changed the stored image")
	}
}

// CountFlips must agree with the materialized encoding cost.
func TestCountFlipsMatchesEncode(t *testing.T) {
	f := func(seed int64) bool {
		c := MustNew(2)
		rng := rand.New(rand.NewSource(seed))
		stored := make([]byte, 64)
		flips := make([]byte, 4)
		logical := make([]byte, 64)
		rng.Read(stored)
		rng.Read(flips)
		rng.Read(logical)
		newData, newFlips := encode(c, stored, flips, logical)
		actual := bitutil.Hamming(stored, newData) + bitutil.Hamming(flips, newFlips)
		return c.CountFlips(stored, flips, logical) == actual
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// FNW must never be worse than plain DCW plus flip-bit maintenance baseline:
// cost(FNW) <= hamming(decoded stored, logical) is not guaranteed, but
// cost(FNW) <= cost(storing plainly) always holds per word.
func TestNeverWorseThanPlainStore(t *testing.T) {
	f := func(seed int64) bool {
		c := MustNew(2)
		rng := rand.New(rand.NewSource(seed))
		stored := make([]byte, 16)
		flips := make([]byte, 1)
		logical := make([]byte, 16)
		rng.Read(stored)
		rng.Read(flips)
		rng.Read(logical)
		plainCost := 0
		for i := 0; i < 8; i++ {
			plainCost += bitutil.HammingRange(stored, logical, i*2, 2)
			if bitutil.GetBit(flips, i) {
				plainCost++ // clearing the flip bit
			}
		}
		return c.CountFlips(stored, flips, logical) <= plainCost
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestWordsAndFlipBits(t *testing.T) {
	c := MustNew(2)
	if c.Words(64) != 32 || c.FlipBits(64) != 32 {
		t.Errorf("Words/FlipBits = %d/%d, want 32/32", c.Words(64), c.FlipBits(64))
	}
	c8 := MustNew(8)
	if c8.FlipBits(64) != 8 {
		t.Errorf("8-byte FlipBits = %d, want 8", c8.FlipBits(64))
	}
}

func TestMismatchedLengthsPanic(t *testing.T) {
	c := MustNew(2)
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched lengths did not panic")
		}
	}()
	encode(c, make([]byte, 64), make([]byte, 4), make([]byte, 32))
}

func TestShortFlipSlicePanics(t *testing.T) {
	c := MustNew(2)
	defer func() {
		if recover() == nil {
			t.Fatal("short flip slice did not panic")
		}
	}()
	encode(c, make([]byte, 64), make([]byte, 1), make([]byte, 64))
}

// On random data vs random stored state, average FNW cost per word must be
// strictly below the DCW average (w/2) — this is the 50%→43% effect the
// paper reports for encrypted lines.
func TestRandomDataBeatsDCW(t *testing.T) {
	c := MustNew(2)
	rng := rand.New(rand.NewSource(77))
	totalFNW, totalDCW := 0, 0
	stored := make([]byte, 64)
	flips := make([]byte, 4)
	logical := make([]byte, 64)
	for trial := 0; trial < 500; trial++ {
		rng.Read(logical)
		totalFNW += c.CountFlips(stored, flips, logical)
		totalDCW += bitutil.Hamming(stored, logical)
		stored, flips = encode(c, stored, flips, logical)
	}
	fnwFrac := float64(totalFNW) / float64(500*544) // 512 data + 32 flip cells
	dcwFrac := float64(totalDCW) / float64(500*512)
	if fnwFrac >= dcwFrac {
		t.Errorf("FNW fraction %.3f not below DCW fraction %.3f", fnwFrac, dcwFrac)
	}
	// Paper: ~43% for FNW on random (encrypted) data.
	if fnwFrac < 0.40 || fnwFrac > 0.46 {
		t.Errorf("FNW fraction on random data = %.3f, want ≈0.43", fnwFrac)
	}
}

func BenchmarkEncode(b *testing.B) {
	c := MustNew(2)
	rng := rand.New(rand.NewSource(1))
	stored := make([]byte, 64)
	flips := make([]byte, 4)
	logical := make([]byte, 64)
	rng.Read(stored)
	rng.Read(logical)
	newData, newFlips := make([]byte, 64), make([]byte, 4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.EncodeInto(newData, newFlips, stored, flips, logical)
	}
}
