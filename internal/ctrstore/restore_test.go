package ctrstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"slices"
	"testing"

	"deuce/internal/backend"
)

// restoreLines and restoreBits are the geometry the Restore tests
// snapshot and restore.
const (
	restoreLines = 4
	restoreBits  = 28
)

// filledStore returns a restoreLines×restoreBits store holding distinct
// counters derived from seed.
func filledStore(seed uint64) *Store {
	s := MustNew(restoreLines, restoreBits)
	for l := uint64(0); l < restoreLines; l++ {
		s.Set(l, seed*100+l*7+1)
	}
	return s
}

// counterSnapshot serializes s.
func counterSnapshot(t testing.TB, s *Store) []byte {
	var buf bytes.Buffer
	if err := s.Serialize(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// values returns every counter of s.
func values(s *Store) []uint64 {
	out := make([]uint64, s.Len())
	for i := range out {
		out[i] = s.Get(uint64(i))
	}
	return out
}

// TestRestoreTypedErrors checks each malformed snapshot fails with its
// typed error and leaves every counter untouched, and that a valid one
// installs exactly its counters.
func TestRestoreTypedErrors(t *testing.T) {
	good := counterSnapshot(t, filledStore(1))
	wide := bytes.Clone(good)
	binary.LittleEndian.PutUint64(wide[16+8:], 1<<restoreBits+5) // counter 1
	for _, tc := range []struct {
		name string
		in   []byte
		want error
	}{
		{"empty", nil, backend.ErrTruncated},
		{"short header", good[:12], backend.ErrTruncated},
		{"other count", counterSnapshot(t, MustNew(restoreLines+1, restoreBits)), backend.ErrGeometry},
		{"other width", counterSnapshot(t, MustNew(restoreLines, restoreBits-1)), backend.ErrGeometry},
		{"no counters", good[:16], backend.ErrTruncated},
		{"cut after counter 1", good[:16+2*8], backend.ErrTruncated},
		{"last counter short", good[:len(good)-1], backend.ErrTruncated},
		{"counter past the width", wide, backend.ErrCorrupt},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := filledStore(2)
			before := values(s)
			err := s.Restore(bytes.NewReader(tc.in))
			if !errors.Is(err, tc.want) {
				t.Fatalf("Restore = %v, want %v", err, tc.want)
			}
			if !slices.Equal(values(s), before) {
				t.Errorf("failed Restore changed the counters: %v, was %v", values(s), before)
			}
		})
	}

	s := filledStore(2)
	if err := s.Restore(bytes.NewReader(good)); err != nil {
		t.Fatal(err)
	}
	if want := values(filledStore(1)); !slices.Equal(values(s), want) {
		t.Errorf("restored counters %v, want %v", values(s), want)
	}
}

// TestRestoreOutOfRangeNeverRollsBack pins the pad-reuse consequence of
// the width check: a counter one past the mask would otherwise restore,
// and the line's next Increment would hand out a counter it may already
// have used.
func TestRestoreOutOfRangeNeverRollsBack(t *testing.T) {
	snap := counterSnapshot(t, filledStore(0))
	binary.LittleEndian.PutUint64(snap[16:], 1<<restoreBits+5)
	s := filledStore(3)
	if err := s.Restore(bytes.NewReader(snap)); !errors.Is(err, backend.ErrCorrupt) {
		t.Fatalf("Restore = %v, want ErrCorrupt", err)
	}
	if v, _ := s.Increment(0); v != filledStore(3).Get(0)+1 {
		t.Errorf("Increment after a refused Restore = %d, want %d", v, filledStore(3).Get(0)+1)
	}
}

// FuzzCounterRestore feeds arbitrary bytes to Restore: it must never
// panic, every error must be one of the three typed kinds and leave the
// counters as they were, and a success must install exactly the
// snapshot's counters, each within the width (the first seed is the round
// trip of a valid snapshot).
func FuzzCounterRestore(f *testing.F) {
	good := counterSnapshot(f, filledStore(1))
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add(good[:16+2*8])
	f.Add(counterSnapshot(f, MustNew(restoreLines, restoreBits-1)))
	wide := bytes.Clone(good)
	binary.LittleEndian.PutUint64(wide[len(wide)-8:], 1<<restoreBits)
	f.Add(wide)
	f.Fuzz(func(t *testing.T, in []byte) {
		s := filledStore(2)
		before := values(s)
		if err := s.Restore(bytes.NewReader(in)); err != nil {
			if !errors.Is(err, backend.ErrCorrupt) && !errors.Is(err, backend.ErrGeometry) && !errors.Is(err, backend.ErrTruncated) {
				t.Fatalf("untyped Restore error: %v", err)
			}
			if !slices.Equal(values(s), before) {
				t.Fatal("failed Restore changed the counters")
			}
			return
		}
		for i, v := range values(s) {
			if want := binary.LittleEndian.Uint64(in[16+8*i:]); v != want || v > s.mask {
				t.Fatalf("counter %d restored as %d, snapshot holds %d (width %d bits)", i, v, want, s.bits)
			}
		}
	})
}
