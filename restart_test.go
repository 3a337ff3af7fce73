package deuce

import (
	"bytes"
	"io"
	"math/rand"
	"path/filepath"
	"testing"
)

// traceResult is everything the restart differential suite compares:
// final line contents and the exact integer activity counters. Averages
// are derived fields and MetadataBitsPerLine is static, so the integers
// are the complete behavioral fingerprint.
type traceResult struct {
	contents   [][]byte
	writes     uint64
	reads      uint64
	bitFlips   uint64
	writeSlots uint64
}

// addStats folds one segment's Stats into the result (the restart variant
// accumulates two segments — device statistics are volatile controller
// state and reset across a restart).
func (r *traceResult) addStats(s Stats) {
	r.writes += s.Writes
	r.reads += s.Reads
	r.bitFlips += s.BitFlips
	r.writeSlots += s.WriteSlots
}

const (
	diffLines     = 64
	diffWrites    = 500
	diffRestartAt = diffWrites / 2
)

// runTrace drives a deterministic write/read trace against m, invoking
// midpoint at write diffRestartAt (which may replace m — it returns the
// memory to continue on) and, when syncEvery > 0, Sync after every
// syncEvery-th write. Every variant's midpoint calls Persist, so
// i-NVMM's power-down encryption (a Persist side effect that changes both
// contents and flip counts) applies identically everywhere; without that,
// only the restart variant would pay it and bit-identity could not hold.
func runTrace(t *testing.T, m *Memory, syncEvery int, midpoint func(m *Memory, res *traceResult) *Memory) traceResult {
	t.Helper()
	var res traceResult
	rng := rand.New(rand.NewSource(99))
	buf := make([]byte, 64)
	scratch := make([]byte, 64)
	for i := 0; i < diffWrites; i++ {
		if i == diffRestartAt {
			m = midpoint(m, &res)
		}
		l := uint64(rng.Intn(diffLines))
		rng.Read(buf)
		m.Write(l, buf)
		if syncEvery > 0 && (i+1)%syncEvery == 0 {
			if err := m.Sync(); err != nil {
				t.Fatal(err)
			}
		}
		if i%3 == 0 {
			m.ReadInto(uint64(rng.Intn(diffLines)), scratch)
		}
	}
	res.addStats(m.Stats())
	res.contents = make([][]byte, diffLines)
	for l := 0; l < diffLines; l++ {
		res.contents[l] = make([]byte, 64)
		m.ReadInto(uint64(l), res.contents[l])
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	return res
}

// persistMidpoint is the midpoint for non-restart variants: snapshot to
// io.Discard so Persist's side effects (i-NVMM power-down) land, keep
// running on the same memory.
func persistMidpoint(t *testing.T) func(m *Memory, _ *traceResult) *Memory {
	return func(m *Memory, _ *traceResult) *Memory {
		t.Helper()
		if err := m.Persist(io.Discard); err != nil {
			t.Fatal(err)
		}
		return m
	}
}

// restartMidpoint is a full power cycle mid-trace: controller snapshot,
// durable sync, close, reopen on opts.Dir, restore.
func restartMidpoint(t *testing.T, opts Options) func(m *Memory, res *traceResult) *Memory {
	snap := filepath.Join(opts.Dir, "ctl.snap")
	return func(m *Memory, res *traceResult) *Memory {
		t.Helper()
		if err := m.PersistToFile(snap); err != nil {
			t.Fatal(err)
		}
		if err := m.Sync(); err != nil {
			t.Fatal(err)
		}
		res.addStats(m.Stats())
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
		m2, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := m2.RestoreFromFile(snap); err != nil {
			t.Fatal(err)
		}
		return m2
	}
}

// TestRestartDifferential pins the backend layer's central promise: the
// same trace produces bit-identical contents and activity counters on the
// in-memory backend, the file backend, the sharded-dir backend, a file
// backend that is synced, closed, reopened and restored in the middle of
// the trace, a file backend synced every 64 writes throughout, and one
// synced every 8 writes and restarted mid-trace. Every scheme must hold
// this — a divergence means a backend leaks into scheme behavior or a
// restart loses state.
func TestRestartDifferential(t *testing.T) {
	for _, s := range Schemes() {
		s := s
		t.Run(string(s), func(t *testing.T) {
			t.Parallel()
			base := Options{Lines: diffLines, Scheme: s}

			ref := runTrace(t, MustNew(base), 0, persistMidpoint(t))

			variants := []struct {
				name string
				run  func(t *testing.T) traceResult
			}{
				{"file", func(t *testing.T) traceResult {
					opts := base
					opts.Backend, opts.Dir = FileBackend, t.TempDir()
					return runTrace(t, MustNew(opts), 0, persistMidpoint(t))
				}},
				{"file-sync64", func(t *testing.T) traceResult {
					opts := base
					opts.Backend, opts.Dir = FileBackend, t.TempDir()
					return runTrace(t, MustNew(opts), 64, persistMidpoint(t))
				}},
				{"dir", func(t *testing.T) traceResult {
					opts := base
					opts.Backend, opts.Dir, opts.DirShards = DirBackend, t.TempDir(), 4
					return runTrace(t, MustNew(opts), 0, persistMidpoint(t))
				}},
				{"restart", func(t *testing.T) traceResult {
					opts := base
					opts.Backend, opts.Dir = FileBackend, t.TempDir()
					return runTrace(t, MustNew(opts), 0, restartMidpoint(t, opts))
				}},
				// Synced every 8 writes, the journal fills its log and
				// checkpoints before the restart, which then replays a
				// non-empty log.
				{"file-sync8", func(t *testing.T) traceResult {
					opts := base
					opts.Backend, opts.Dir = FileBackend, t.TempDir()
					return runTrace(t, MustNew(opts), 8, restartMidpoint(t, opts))
				}},
			}
			for _, v := range variants {
				got := v.run(t)
				if got.writes != ref.writes || got.reads != ref.reads ||
					got.bitFlips != ref.bitFlips || got.writeSlots != ref.writeSlots {
					t.Errorf("%s: counters diverge: got writes=%d reads=%d flips=%d slots=%d, ref writes=%d reads=%d flips=%d slots=%d",
						v.name, got.writes, got.reads, got.bitFlips, got.writeSlots,
						ref.writes, ref.reads, ref.bitFlips, ref.writeSlots)
				}
				for l := range ref.contents {
					if !bytes.Equal(got.contents[l], ref.contents[l]) {
						t.Errorf("%s: line %d contents diverge from in-memory reference", v.name, l)
						break
					}
				}
			}
		})
	}
}
