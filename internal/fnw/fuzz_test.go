package fnw

import (
	"testing"

	"deuce/internal/bitutil"
)

// FuzzRoundTrip drives the codec with arbitrary stored state and payloads
// at every granularity: decode(encode(x)) must equal x and the flip count
// must match the materialized cost, for any inputs.
func FuzzRoundTrip(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3}, byte(0))
	f.Add(make([]byte, 200), byte(1))
	f.Fuzz(func(t *testing.T, raw []byte, sel byte) {
		c := MustNew([]int{1, 2, 4, 8}[int(sel)%4])
		// Carve the fuzz input into stored | flips | logical.
		const lineBytes = 64
		need := lineBytes + 8 + lineBytes
		if len(raw) < need {
			return
		}
		stored := raw[:lineBytes]
		flips := append([]byte(nil), raw[lineBytes:lineBytes+8]...)
		logical := raw[lineBytes+8 : need]
		// Contract: storedFlips carries one bit per word; bits past the
		// word count are not the codec's to manage. Clear them.
		for b := c.Words(lineBytes); b < 64; b++ {
			bitutil.SetBit(flips, b, false)
		}

		newData, newFlips := encode(c, stored, flips, logical)
		if got := decode(c, newData, newFlips); !bitutil.Equal(got, logical) {
			t.Fatalf("round trip failed (w=%d)", c.WordBytes())
		}
		want := bitutil.Hamming(stored, newData) + bitutil.Hamming(flips, newFlips)
		if got := c.CountFlips(stored, flips, logical); got != want {
			t.Fatalf("CountFlips %d != materialized %d", got, want)
		}
		// Per-word bound.
		words := c.Words(lineBytes)
		if want > words*c.MaxFlipsPerWord() {
			t.Fatalf("cost %d exceeds aggregate bound", want)
		}
	})
}
