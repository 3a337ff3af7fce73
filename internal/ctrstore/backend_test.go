package ctrstore

import (
	"encoding/binary"
	"errors"
	"path/filepath"
	"testing"

	"deuce/internal/backend"
)

// TestBackendRoundTrip pins counter durability: values synced to a file
// backend are what a store reopened on the same file starts from.
func TestBackendRoundTrip(t *testing.T) {
	const counters = 10000 // spans multiple pages
	path := filepath.Join(t.TempDir(), "ctr.pg")
	open := func() *Store {
		be, err := backend.OpenFile(path, BackendPages(counters), PageBytes)
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewOnBackend(be, counters, 28)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	s := open()
	for i := uint64(0); i < counters; i += 7 {
		s.Set(i, i*3)
	}
	s.Increment(1)
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r := open()
	defer r.Close()
	for i := uint64(0); i < counters; i++ {
		var want uint64
		if i%7 == 0 {
			want = (i * 3) & r.mask
		}
		if i == 1 {
			want = 1
		}
		if got := r.Get(i); got != want {
			t.Fatalf("counter %d = %d after reopen, want %d", i, got, want)
		}
	}
}

// TestBackendUnsyncedLost pins the tear model the counter-recovery drill
// depends on: increments after the last Sync are not in the persistence
// domain.
func TestBackendUnsyncedLost(t *testing.T) {
	const counters = 100
	cs := backend.NewCrashSim(backend.NewMem(BackendPages(counters), PageBytes))
	s, err := NewOnBackend(cs, counters, 28)
	if err != nil {
		t.Fatal(err)
	}
	s.Increment(5)
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	s.Increment(5) // in the write queue only
	if err := s.flushDirty(); err != nil {
		t.Fatal(err)
	}
	_ = cs.Crash()

	r, err := NewOnBackend(cs, counters, 28)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Get(5); got != 1 {
		t.Fatalf("counter 5 = %d after crash, want the synced value 1", got)
	}
}

// TestBackendGeometry pins the typed geometry error.
func TestBackendGeometry(t *testing.T) {
	_, err := NewOnBackend(backend.NewMem(1, 512), 100, 28)
	if !errors.Is(err, backend.ErrGeometry) {
		t.Fatalf("got %v, want ErrGeometry", err)
	}
}

// TestBackendOverWidthCounterCorrupt pins that a persisted counter wider
// than the store's width is refused rather than masked: masking would roll
// the counter back, and the next Increment would reuse a pad.
func TestBackendOverWidthCounterCorrupt(t *testing.T) {
	const counters, bits = 100, 28
	be := backend.NewMem(BackendPages(counters), PageBytes)
	binary.LittleEndian.PutUint64(be.Page(0)[42*8:], 1<<bits+5)
	if _, err := NewOnBackend(be, counters, bits); !errors.Is(err, backend.ErrCorrupt) {
		t.Fatalf("NewOnBackend = %v, want ErrCorrupt", err)
	}
	binary.LittleEndian.PutUint64(be.Page(0)[42*8:], 1<<bits-1)
	s, err := NewOnBackend(be, counters, bits)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Get(42); got != 1<<bits-1 {
		t.Fatalf("counter 42 = %d, want the full-width value %d", got, uint64(1<<bits-1))
	}
}
