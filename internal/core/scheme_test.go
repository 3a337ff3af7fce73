package core

import (
	"fmt"
	"math/rand"
	"testing"

	"deuce/internal/bitutil"
)

// allKinds lists every scheme for table-driven tests, including the
// related-work reproductions.
var allKinds = []Kind{
	KindPlainDCW, KindPlainFNW, KindEncrDCW, KindEncrFNW,
	KindDeuce, KindDeuceFNW, KindDynDeuce, KindBLE, KindBLEDeuce,
	KindAddrPad, KindINVMM, KindSecret,
}

func testParams() Params {
	return Params{Lines: 16}
}

func TestRegistryConstructsAll(t *testing.T) {
	for _, k := range allKinds {
		s, err := New(k, testParams())
		if err != nil {
			t.Fatalf("New(%s): %v", k, err)
		}
		if s.Name() == "" {
			t.Errorf("%s: empty Name", k)
		}
		if s.Device() == nil {
			t.Errorf("%s: nil Device", k)
		}
	}
	if _, err := New(Kind("nope"), testParams()); err == nil {
		t.Error("unknown kind accepted")
	}
	if len(Kinds()) != len(allKinds) {
		t.Errorf("Kinds() has %d entries, want %d", len(Kinds()), len(allKinds))
	}
}

func TestParamValidation(t *testing.T) {
	cases := []Params{
		{Lines: 0},
		{Lines: 4, EpochInterval: 3},
		{Lines: 4, WordBytes: 3},
		{Lines: 4, LineBytes: 40},
		{Lines: 4, Key: []byte("short")},
	}
	for i, p := range cases {
		if _, err := NewDeuce(p); err == nil {
			t.Errorf("case %d: invalid params accepted: %+v", i, p)
		}
	}
}

// A pad tweak carries an 8-bit block index, so a line longer than 256 AES
// blocks would reuse pads within itself: an 8192-byte encr-dcw line once
// stored identical ciphertext at bytes 0 and 4096 for an all-zero write.
// Every scheme refuses such lines and non-positive ones, and at the
// 4096-byte limit every block of a zero line encrypts differently.
func TestLineBytesBounds(t *testing.T) {
	for _, k := range allKinds {
		for _, lb := range []int{-16, -4096, 4096 + 16, 8192} {
			if _, err := New(k, Params{Lines: 1, LineBytes: lb}); err == nil {
				t.Errorf("%s: LineBytes %d accepted", k, lb)
			}
		}
		for _, lb := range []int{16, 4096} {
			if _, err := New(k, Params{Lines: 1, LineBytes: lb}); err != nil {
				t.Errorf("%s: LineBytes %d refused: %v", k, lb, err)
			}
		}
	}
	s := MustNew(KindEncrDCW, Params{Lines: 1, LineBytes: 4096})
	s.Write(0, make([]byte, 4096))
	cells, _ := s.Device().Peek(0)
	seen := map[string]int{}
	for i := 0; i < len(cells); i += 16 {
		if j, dup := seen[string(cells[i:i+16])]; dup {
			t.Fatalf("blocks %d and %d of a zero line share a pad", j, i/16)
		}
		seen[string(cells[i:i+16])] = i / 16
	}
}

// Invariant 1 from DESIGN.md: every scheme returns the last written
// plaintext, under long random write/read sequences against a shadow model.
func TestRoundTripShadowModel(t *testing.T) {
	for _, k := range allKinds {
		k := k
		t.Run(string(k), func(t *testing.T) {
			t.Parallel()
			const lines = 8
			s := MustNew(k, Params{Lines: lines, EpochInterval: 4})
			shadow := make([][]byte, lines)
			for i := range shadow {
				shadow[i] = make([]byte, 64)
			}
			rng := rand.New(rand.NewSource(42))
			for step := 0; step < 2000; step++ {
				line := uint64(rng.Intn(lines))
				switch rng.Intn(3) {
				case 0: // full random write
					rng.Read(shadow[line])
				case 1: // sparse write: mutate a couple of words
					for n := 0; n < 1+rng.Intn(3); n++ {
						off := rng.Intn(32) * 2
						shadow[line][off] = byte(rng.Int())
					}
				case 2: // read-only step
					got := s.Read(line)
					if !bitutil.Equal(got, shadow[line]) {
						t.Fatalf("step %d: read mismatch on line %d", step, line)
					}
					continue
				}
				s.Write(line, shadow[line])
				if got := s.Read(line); !bitutil.Equal(got, shadow[line]) {
					t.Fatalf("step %d: read-after-write mismatch on line %d", step, line)
				}
			}
			// Final sweep across all lines.
			for l := uint64(0); l < lines; l++ {
				if !bitutil.Equal(s.Read(l), shadow[l]) {
					t.Fatalf("final sweep mismatch on line %d", l)
				}
			}
		})
	}
}

// Reads of never-written lines return the zero line (initial placement).
func TestReadBeforeWriteIsZero(t *testing.T) {
	for _, k := range allKinds {
		s := MustNew(k, testParams())
		got := s.Read(3)
		if bitutil.PopCount(got) != 0 {
			t.Errorf("%s: unwritten line reads non-zero", k)
		}
	}
}

// Rewriting the identical plaintext must be (nearly) free for the
// write-efficient schemes and expensive for baseline encryption.
func TestIdenticalRewriteCost(t *testing.T) {
	data := make([]byte, 64)
	rand.New(rand.NewSource(5)).Read(data)

	for _, k := range allKinds {
		s := MustNew(k, Params{Lines: 16, EpochInterval: 4})
		// Drive the line to an epoch boundary (counter 4) so the DEUCE
		// modified bits are clear, then measure an identical rewrite.
		for i := 0; i < 4; i++ {
			s.Write(0, data)
		}
		res := s.Write(0, data)
		flips := res.TotalFlips()
		switch k {
		case KindPlainDCW, KindPlainFNW, KindBLE, KindBLEDeuce, KindAddrPad, KindINVMM:
			// AddrPad's pad is fixed, so XOR preserves equality;
			// i-NVMM keeps the hot line in plain text.
			if flips != 0 {
				t.Errorf("%s: identical rewrite cost %d, want 0", k, flips)
			}
		case KindEncrDCW, KindEncrFNW:
			// Fresh pad re-randomizes the image: expect ~50%/~43%.
			if flips < 150 {
				t.Errorf("%s: identical rewrite cost %d, suspiciously low for full re-encryption", k, flips)
			}
		case KindDeuce, KindDeuceFNW, KindDynDeuce, KindSecret:
			// No word changed since the epoch boundary: nothing
			// re-encrypts and nothing is programmed.
			if flips != 0 {
				t.Errorf("%s: identical post-epoch rewrite cost %d, want 0", k, flips)
			}
		}
	}
}

// Table 3 storage overheads.
func TestOverheadBits(t *testing.T) {
	want := map[Kind]int{
		KindPlainDCW: 0,
		KindPlainFNW: 32,
		KindEncrDCW:  0,
		KindEncrFNW:  32,
		KindDeuce:    32,
		KindDeuceFNW: 64,
		KindDynDeuce: 33,
		KindBLE:      84,      // 3 extra 28-bit counters
		KindBLEDeuce: 84 + 32, // extra counters + modified bits
		KindAddrPad:  0,
		KindINVMM:    0,
		KindSecret:   64, // modified bits + zero flags
	}
	for k, w := range want {
		s := MustNew(k, testParams())
		if got := s.OverheadBits(); got != w {
			t.Errorf("%s: OverheadBits = %d, want %d", k, got, w)
		}
	}
}

// Baseline encrypted memory must exhibit the avalanche effect: ~50% of data
// cells flip per write even for a 1-bit plaintext change (Figure 1a).
func TestEncryptedAvalanche(t *testing.T) {
	s := MustNew(KindEncrDCW, Params{Lines: 1})
	data := make([]byte, 64)
	s.Write(0, data)
	total := 0
	const writes = 200
	for i := 0; i < writes; i++ {
		data[0] ^= 1 // single-bit plaintext change
		total += s.Write(0, data).DataFlips
	}
	frac := float64(total) / float64(writes*512)
	if frac < 0.47 || frac > 0.53 {
		t.Errorf("encrypted single-bit-change flip fraction = %.3f, want ~0.50", frac)
	}
}

// The same single-bit workload under DEUCE flips only the touched word plus
// epoch-boundary re-encryptions — far below the avalanche baseline.
func TestDeuceBeatsBaselineOnSparseWrites(t *testing.T) {
	for _, k := range []Kind{KindDeuce, KindDeuceFNW, KindDynDeuce} {
		s := MustNew(k, Params{Lines: 1, EpochInterval: 32})
		data := make([]byte, 64)
		s.Write(0, data)
		total := 0
		const writes = 320
		rng := rand.New(rand.NewSource(8))
		for i := 0; i < writes; i++ {
			data[0] = byte(rng.Int()) // keep changes inside word 0
			total += s.Write(0, data).TotalFlips()
		}
		frac := float64(total) / float64(writes*512)
		if frac > 0.12 {
			t.Errorf("%s: sparse-write flip fraction = %.3f, want well below baseline 0.50", k, frac)
		}
	}
}

// Plaintext size mismatches must panic loudly for every scheme.
func TestWrongSizeWritePanics(t *testing.T) {
	for _, k := range allKinds {
		k := k
		t.Run(string(k), func(t *testing.T) {
			s := MustNew(k, testParams())
			defer func() {
				if recover() == nil {
					t.Errorf("%s: short write did not panic", k)
				}
			}()
			s.Write(0, make([]byte, 16))
		})
	}
}

// Counter wrap must preserve the round trip (forced by a tiny counter).
func TestCounterWrapRoundTrip(t *testing.T) {
	for _, k := range []Kind{KindEncrDCW, KindDeuce, KindDynDeuce, KindBLE, KindBLEDeuce} {
		s := MustNew(k, Params{Lines: 2, CounterBits: 4, EpochInterval: 4})
		data := make([]byte, 64)
		rng := rand.New(rand.NewSource(13))
		for i := 0; i < 40; i++ { // > 2^4 writes: counters wrap at least twice
			rng.Read(data)
			s.Write(1, data)
			if !bitutil.Equal(s.Read(1), data) {
				t.Fatalf("%s: round trip broken after %d writes (wrap)", k, i+1)
			}
		}
	}
}

func ExampleNew() {
	s, err := New(KindDeuce, Params{Lines: 1024})
	if err != nil {
		panic(err)
	}
	line := make([]byte, 64)
	copy(line, "hello, secure PCM")
	res := s.Write(7, line)
	fmt.Println(string(s.Read(7)[:17]), res.TotalFlips() > 0)
	// Output: hello, secure PCM true
}
