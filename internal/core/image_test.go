package core

import (
	"math/rand"
	"testing"

	"deuce/internal/bitutil"
	"deuce/internal/otp"
)

// The baseline's stored image must be exactly plaintext XOR pad(addr, ctr):
// the scheme layer adds nothing beyond the §2.4 construction.
func TestEncrDCWImageStructure(t *testing.T) {
	key := []byte("0123456789abcdef")
	s, err := NewEncrDCW(Params{Lines: 4, Key: key})
	if err != nil {
		t.Fatal(err)
	}
	gen := otp.MustNewGenerator(key)

	plain := make([]byte, 64)
	rand.New(rand.NewSource(1)).Read(plain)
	s.Write(2, plain) // counter becomes 1

	stored, _ := s.dev.Peek(2)
	want := gen.Encrypt(2, 1, plain)
	if !bitutil.Equal(stored, want) {
		t.Fatal("stored image is not plaintext XOR pad(line, counter)")
	}
}

// DEUCE's stored image decomposes per word: modified words carry the LCTR
// pad, unmodified words the TCTR pad — checked against an independent pad
// computation.
func TestDeuceImageStructure(t *testing.T) {
	key := []byte("0123456789abcdef")
	s, err := NewDeuce(Params{Lines: 2, EpochInterval: 8, Key: key})
	if err != nil {
		t.Fatal(err)
	}
	gen := otp.MustNewGenerator(key)

	plain := make([]byte, 64)
	s.Write(0, plain) // ctr 1, no changes vs installed zeros
	plain[10], plain[11] = 0xaa, 0xbb
	s.Write(0, plain) // ctr 2, word 5 modified

	stored, meta := s.dev.Peek(0)
	lpad := gen.Pad(0, 2, 64) // LCTR = 2
	tpad := gen.Pad(0, 0, 64) // TCTR = 0 (epoch 8)
	for w := 0; w < 32; w++ {
		pad := tpad
		if bitutil.GetBit(meta, w) {
			if w != 5 {
				t.Fatalf("unexpected modified bit on word %d", w)
			}
			pad = lpad
		}
		for j := w * 2; j < w*2+2; j++ {
			if stored[j] != plain[j]^pad[j] {
				t.Fatalf("word %d byte %d: stored image does not match its pad", w, j)
			}
		}
	}
}

// Counter wrap-around must land on an epoch boundary (full re-encryption,
// bits cleared) because the epoch divides the counter space.
func TestDeuceWrapForcesEpoch(t *testing.T) {
	s, err := NewDeuce(Params{Lines: 1, CounterBits: 4, EpochInterval: 8})
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 64)
	rng := rand.New(rand.NewSource(3))
	for i := 1; i <= 16; i++ { // wraps exactly at write 16 (ctr 0)
		data[0] = byte(rng.Int())
		s.Write(0, data)
	}
	if got := s.ctrs.Get(0); got != 0 {
		t.Fatalf("counter after 16 writes = %d, want 0 (wrapped)", got)
	}
	_, meta := s.dev.Peek(0)
	if bitutil.PopCount(meta) != 0 {
		t.Fatal("modified bits not cleared at wrap-induced epoch")
	}
	if !bitutil.Equal(read(s, 0), data) {
		t.Fatal("data lost across counter wrap")
	}
}

// Round trips must hold for every (scheme, word size) combination that
// supports word-size configuration.
func TestWordSizeGrid(t *testing.T) {
	kinds := []Kind{KindPlainFNW, KindEncrFNW, KindDeuce, KindDeuceFNW, KindDynDeuce, KindBLEDeuce}
	for _, k := range kinds {
		for _, wb := range []int{1, 2, 4, 8} {
			s := MustNew(k, Params{Lines: 2, WordBytes: wb, EpochInterval: 4})
			rng := rand.New(rand.NewSource(int64(wb)))
			data := make([]byte, 64)
			for i := 0; i < 60; i++ {
				data[rng.Intn(64)] = byte(rng.Int())
				s.Write(0, data)
				if !bitutil.Equal(read(s, 0), data) {
					t.Fatalf("%s word=%dB: round trip failed at write %d", k, wb, i)
				}
			}
		}
	}
}

// Two memories with the same key and write sequence store identical
// images; a different key stores different images (key actually matters).
func TestKeyDeterminism(t *testing.T) {
	seq := func(key []byte) []byte {
		s := MustNew(KindDeuce, Params{Lines: 1, Key: key})
		data := make([]byte, 64)
		rng := rand.New(rand.NewSource(5))
		for i := 0; i < 20; i++ {
			data[rng.Intn(64)] = byte(rng.Int())
			s.Write(0, data)
		}
		img, _ := s.Device().Peek(0)
		return img
	}
	a := seq([]byte("0123456789abcdef"))
	b := seq([]byte("0123456789abcdef"))
	c := seq([]byte("fedcba9876543210"))
	if !bitutil.Equal(a, b) {
		t.Error("same key, same sequence, different images")
	}
	if bitutil.Equal(a, c) {
		t.Error("different keys produced identical images")
	}
}

// Install must refuse a second call and a post-write call on the same line
// for every scheme (the §3.1 placement contract).
func TestInstallContract(t *testing.T) {
	for _, k := range allKinds {
		k := k
		t.Run(string(k), func(t *testing.T) {
			s := MustNew(k, testParams())
			data := make([]byte, 64)
			s.Install(0, data)
			func() {
				defer func() {
					if recover() == nil {
						t.Error("double Install did not panic")
					}
				}()
				s.Install(0, data)
			}()
			s.Write(1, data)
			func() {
				defer func() {
					if recover() == nil {
						t.Error("Install after Write did not panic")
					}
				}()
				s.Install(1, data)
			}()
		})
	}
}
