package otp

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"deuce/internal/bitutil"
)

var testKey = []byte("0123456789abcdef")

func gen(t testing.TB) *Generator {
	t.Helper()
	g, err := NewGenerator(testKey)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestNewGeneratorKeyLength(t *testing.T) {
	if _, err := NewGenerator([]byte("short")); err == nil {
		t.Error("expected error for short key")
	}
	if _, err := NewGenerator(make([]byte, 32)); err == nil {
		t.Error("expected error for 32-byte key (this package is AES-128 only)")
	}
	if _, err := NewGenerator(make([]byte, 16)); err != nil {
		t.Errorf("unexpected error for 16-byte key: %v", err)
	}
}

func TestMustNewGeneratorPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNewGenerator did not panic on bad key")
		}
	}()
	MustNewGenerator([]byte("bad"))
}

func TestPadDeterministic(t *testing.T) {
	g := gen(t)
	a := g.Pad(42, 7, 64)
	b := g.Pad(42, 7, 64)
	if !bytes.Equal(a, b) {
		t.Error("same tuple produced different pads")
	}
	if len(a) != 64 {
		t.Errorf("pad length = %d", len(a))
	}
}

func TestPadUniquePerTuple(t *testing.T) {
	g := gen(t)
	seen := make(map[string][2]uint64)
	for addr := uint64(0); addr < 32; addr++ {
		for ctr := uint64(0); ctr < 32; ctr++ {
			p := string(g.Pad(addr, ctr, 16))
			if prev, dup := seen[p]; dup {
				t.Fatalf("pad collision between (%d,%d) and (%d,%d)", addr, ctr, prev[0], prev[1])
			}
			seen[p] = [2]uint64{addr, ctr}
		}
	}
}

// Each 16-byte block within a line pad must itself be unique — this is what
// lets BLE and DEUCE treat blocks independently.
func TestPadBlocksDistinct(t *testing.T) {
	g := gen(t)
	p := g.Pad(1, 1, 64)
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			if bytes.Equal(p[i*16:(i+1)*16], p[j*16:(j+1)*16]) {
				t.Errorf("blocks %d and %d identical", i, j)
			}
		}
	}
}

func TestBlockPadMatchesPadSlice(t *testing.T) {
	g := gen(t)
	full := g.Pad(99, 123, 64)
	for i := 0; i < 4; i++ {
		if !bytes.Equal(g.BlockPad(99, 123, i), full[i*16:(i+1)*16]) {
			t.Errorf("BlockPad(%d) disagrees with Pad slice", i)
		}
	}
}

func TestPadLengthMustBeBlockMultiple(t *testing.T) {
	g := gen(t)
	defer func() {
		if recover() == nil {
			t.Fatal("Pad(…, 10) did not panic")
		}
	}()
	g.Pad(0, 0, 10)
}

// Property: Decrypt(Encrypt(x)) == x for arbitrary data and tuples.
func TestEncryptRoundTrip(t *testing.T) {
	g := gen(t)
	f := func(addr, ctr uint64, data []byte) bool {
		if len(data) == 0 {
			return true
		}
		return bytes.Equal(g.Decrypt(addr, ctr, g.Encrypt(addr, ctr, data)), data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// The avalanche property the paper depends on: incrementing the counter
// re-randomizes ~half the bits of the ciphertext.
func TestAvalancheOnCounterIncrement(t *testing.T) {
	g := gen(t)
	data := make([]byte, 64)
	rand.New(rand.NewSource(3)).Read(data)
	total := 0
	const trials = 200
	for i := 0; i < trials; i++ {
		c1 := g.Encrypt(uint64(i), 10, data)
		c2 := g.Encrypt(uint64(i), 11, data)
		total += bitutil.Hamming(c1, c2)
	}
	avg := float64(total) / trials / 512
	if avg < 0.45 || avg > 0.55 {
		t.Errorf("avalanche fraction = %.3f, want ~0.5", avg)
	}
}

func TestDifferentKeysDifferentPads(t *testing.T) {
	g1 := MustNewGenerator([]byte("0123456789abcdef"))
	g2 := MustNewGenerator([]byte("fedcba9876543210"))
	if bytes.Equal(g1.Pad(5, 5, 16), g2.Pad(5, 5, 16)) {
		t.Error("different keys produced identical pads")
	}
}

// There is no pad cache: every request is derived afresh from scratch the
// generator reuses (tweak block, keystream buffers). 500 repeated requests
// over a small set of tuples, on one long-lived generator, must agree with
// a fresh crypto/aes reference each time, and each must be counted.
func TestCacheCorrectness(t *testing.T) {
	for _, kernel := range paths() {
		g := newGen(t, testKey, kernel)
		rng := rand.New(rand.NewSource(11))
		for i := 0; i < 500; i++ {
			addr, ctr := uint64(rng.Intn(16)), uint64(rng.Intn(4))
			if !bytes.Equal(g.Pad(addr, ctr, 64), refPad(t, testKey, addr, ctr, 64)) {
				t.Fatalf("kernel=%t: repeated pad differs at (%d,%d)", kernel, addr, ctr)
			}
		}
		if got := g.PadsDerived(); got != 500 {
			t.Errorf("kernel=%t: PadsDerived = %d, want 500", kernel, got)
		}
	}
}

// Mutating a returned pad must not corrupt future results: Pad hands out a
// fresh slice, never the generator's tweak or encrypt scratch.
func TestPadReturnsCopies(t *testing.T) {
	for _, kernel := range paths() {
		g := gen(t)
		g.kernel = kernel
		a := g.Pad(7, 7, 64)
		want := bitutil.Clone(a)
		for i := range a {
			a[i] = 0
		}
		if !bytes.Equal(g.Pad(7, 7, 64), want) {
			t.Errorf("kernel=%t: mutating a returned pad changed a later pad", kernel)
		}
	}
}

func TestPadsDerived(t *testing.T) {
	g := gen(t)
	buf := make([]byte, 128)
	g.PadInto(buf[:64], 1, 1)
	g.EncryptInto(buf[:64], 1, 1, buf[:64])
	g.PadPairInto(buf, 1, 2, 3)
	g.BlockPadInto(buf[:BlockSize], 1, 1, 0)
	if got := g.PadsDerived(); got != 5 {
		t.Errorf("PadsDerived = %d, want 5 (pad, encrypt, pair of two, block pad)", got)
	}
}

// BenchmarkPad64 times one pad derivation per iteration into a reused
// buffer: a 64-byte line (four blocks), a 128-byte line (eight) and the
// LCTR+TCTR pair of a 64-byte line (eight, one kernel call), each on the
// path NewGenerator selects and on the crypto/aes loop.
func BenchmarkPad64(b *testing.B) {
	cases := []struct {
		name string
		n    int
		pair bool
	}{{"line64", 64, false}, {"line128", 128, false}, {"pair", 128, true}}
	for _, kernel := range paths() {
		for _, c := range cases {
			name := c.name + "/crypto-aes"
			if kernel {
				name = c.name + "/kernel"
			}
			b.Run(name, func(b *testing.B) {
				g := MustNewGenerator(testKey)
				g.kernel = kernel
				buf := make([]byte, c.n)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if c.pair {
						g.PadPairInto(buf, uint64(i), uint64(i), uint64(i)&^31)
					} else {
						g.PadInto(buf, uint64(i), uint64(i))
					}
				}
			})
		}
	}
}
