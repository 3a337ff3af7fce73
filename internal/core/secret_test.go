package core

import (
	"math/rand"
	"testing"

	"deuce/internal/bitutil"
)

// Zeroing a word and rewriting zeros must be free under SECRET, while the
// same traffic under DEUCE keeps re-encrypting the marked word.
func TestSecretZeroWordsAreFree(t *testing.T) {
	sec, _ := NewSecret(Params{Lines: 1, EpochInterval: 32})
	deu, _ := NewDeuce(Params{Lines: 1, EpochInterval: 32})

	data := make([]byte, 64)
	data[0], data[1] = 0xaa, 0xbb
	sec.Write(0, data)
	deu.Write(0, data)

	// Zero the word, then keep writing the (unchanged, zero-containing)
	// line for the rest of the epoch.
	data[0], data[1] = 0, 0
	var secFlips, deuFlips int
	for i := 0; i < 20; i++ {
		secFlips += sec.Write(0, data).TotalFlips()
		deuFlips += deu.Write(0, data).TotalFlips()
	}
	// DEUCE keeps re-encrypting the marked word (~8 flips/write); SECRET
	// pays once to clear the cells and then nothing.
	if deuFlips < 100 {
		t.Errorf("DEUCE flips = %d, expected sustained re-encryption", deuFlips)
	}
	if secFlips > 40 {
		t.Errorf("SECRET flips = %d, expected near-free zero rewrites", secFlips)
	}
}

// On zero-heavy content SECRET beats DEUCE; the stored image must still
// never contain non-zero-word plaintext.
func TestSecretZeroHeavyWorkload(t *testing.T) {
	sec, _ := NewSecret(Params{Lines: 8, EpochInterval: 32})
	deu, _ := NewDeuce(Params{Lines: 8, EpochInterval: 32})
	rng := rand.New(rand.NewSource(3))
	data := make([]byte, 64)

	var secTotal, deuTotal int
	for i := 0; i < 500; i++ {
		// Sparse updates where most written values are zero (freed
		// slots, cleared flags).
		w := rng.Intn(8) * 2
		if rng.Intn(10) < 7 {
			data[w], data[w+1] = 0, 0
		} else {
			data[w], data[w+1] = byte(rng.Int()), byte(rng.Int())
		}
		line := uint64(rng.Intn(8))
		secTotal += sec.Write(line, data).TotalFlips()
		deuTotal += deu.Write(line, data).TotalFlips()
		if !bitutil.Equal(sec.Read(line), data) {
			t.Fatal("SECRET round trip failed")
		}
	}
	if secTotal >= deuTotal {
		t.Errorf("SECRET (%d flips) not below DEUCE (%d) on zero-heavy traffic", secTotal, deuTotal)
	}
}

// The documented leak: the zero flags reveal exactly which words are zero.
func TestSecretZeroLeak(t *testing.T) {
	sec, _ := NewSecret(Params{Lines: 1})
	data := make([]byte, 64)
	copy(data[10:], "nonzero")
	sec.Write(0, data)
	_, meta := sec.dev.Peek(0)
	_, zero := sec.meta.split(meta, sec.meta.scratch())
	for w := 0; w < 32; w++ {
		wantZero := true
		for j := w * 2; j < w*2+2; j++ {
			if data[j] != 0 {
				wantZero = false
			}
		}
		if bitutil.GetBit(zero, w) != wantZero {
			t.Fatalf("zero flag for word %d = %v, content zero = %v", w, bitutil.GetBit(zero, w), wantZero)
		}
	}
	// Non-zero words must still be ciphertext at rest.
	cells, _ := sec.dev.Peek(0)
	if bitutil.Equal(cells[10:17], data[10:17]) {
		t.Error("non-zero plaintext stored in the clear")
	}
}

// SECRET's two metadata fields pack back to back into the device's 2*words
// cells: at geometries whose word count is not a multiple of 8 they do not
// start on byte boundaries, and every write and read must still round-trip.
func TestSecretUnalignedFields(t *testing.T) {
	for _, g := range []struct{ lb, wb int }{{16, 4}, {16, 8}, {32, 8}, {48, 4}} {
		sec, err := NewSecret(Params{Lines: 4, LineBytes: g.lb, WordBytes: g.wb, EpochInterval: 4})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(g.lb*10 + g.wb)))
		shadow := make([][]byte, 4)
		for i := range shadow {
			shadow[i] = make([]byte, g.lb)
		}
		got := make([]byte, g.lb)
		for i := 0; i < 200; i++ {
			line := rng.Intn(4)
			// Zero some words and randomize others, so both fields move.
			for w := 0; w < g.lb/g.wb; w++ {
				word := shadow[line][w*g.wb : (w+1)*g.wb]
				switch rng.Intn(3) {
				case 0:
					clear(word)
				case 1:
					rng.Read(word)
				}
			}
			sec.Write(uint64(line), shadow[line])
			for l := range shadow {
				sec.ReadInto(uint64(l), got)
				if !bitutil.Equal(got, shadow[l]) || !bitutil.Equal(sec.Read(uint64(l)), shadow[l]) {
					t.Fatalf("%d/%d write %d: line %d read %x, wrote %x", g.lb, g.wb, i, l, got, shadow[l])
				}
			}
		}
	}
}
