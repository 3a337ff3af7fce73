package exp

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"

	"deuce/internal/core"
)

// Every index must run exactly once, no matter how wide the pool is
// relative to the cell count.
func TestForEachCellNRunsEachIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 16, 64} {
		for _, n := range []int{0, 1, 3, 16, 100} {
			counts := make([]atomic.Int32, n)
			err := forEachCellN(workers, n, func(i int) error {
				counts[i].Add(1)
				return nil
			})
			if err != nil {
				t.Fatalf("workers=%d n=%d: %v", workers, n, err)
			}
			for i := range counts {
				if c := counts[i].Load(); c != 1 {
					t.Errorf("workers=%d n=%d: index %d ran %d times", workers, n, i, c)
				}
			}
		}
	}
}

// The reported error must be the lowest-index one regardless of which
// worker hit which cell first, and a failure must not stop other cells.
func TestForEachCellNErrorDeterminism(t *testing.T) {
	var ran atomic.Int32
	errAt := func(i int) error { return fmt.Errorf("cell %d failed", i) }
	err := forEachCellN(8, 50, func(i int) error {
		ran.Add(1)
		if i == 7 || i == 31 || i == 49 {
			return errAt(i)
		}
		return nil
	})
	if err == nil || err.Error() != "cell 7 failed" {
		t.Fatalf("got error %v, want the lowest-index failure (cell 7)", err)
	}
	if got := ran.Load(); got != 50 {
		t.Errorf("ran %d cells, want all 50 even after failures", got)
	}
}

func TestForEachCellNPropagatesSentinel(t *testing.T) {
	sentinel := errors.New("boom")
	err := forEachCellN(4, 10, func(i int) error {
		if i == 3 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("got %v, want the sentinel error", err)
	}
}

// Concurrent-executor regression: cells run on a deliberately wide pool
// must be race-free (each cell owns its scheme) and bit-identical to the
// same cells run serially. The memo is off, so every cell executes in
// both runs.
func TestRunCellsConcurrentMatchesSerial(t *testing.T) {
	rc := RunConfig{Writebacks: 400, Warmup: 64, Lines: 32, Seed: 11}
	cols := []column{
		{label: "DCW", kind: core.KindPlainDCW},
		{label: "DEUCE", kind: core.KindDeuce},
		{label: "Encr_DCW", kind: core.KindEncrDCW},
	}
	specs := sweepCells(rc, "flip", cols)
	setWarmReuse(false)
	defer setWarmReuse(true)
	t.Cleanup(ResetCache)

	run := func(procs int) []cellResult {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		res, err := runCells(rc, specs)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial := run(1)
	wide := run(8)
	for i := range serial {
		if !reflect.DeepEqual(serial[i], wide[i]) {
			t.Errorf("%s: serial %+v != concurrent %+v", specs[i].label(), serial[i].flip, wide[i].flip)
		}
	}
}
