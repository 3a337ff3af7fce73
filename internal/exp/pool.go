package exp

import (
	"runtime"
	"sync"
	"sync/atomic"

	"deuce/internal/obs"
)

// forEachCell runs fn(i) for every i in [0, n) on a bounded worker pool
// sized by GOMAXPROCS. Work is claimed one cell at a time from a shared
// atomic counter, so a worker that finishes early steals the remaining
// cells instead of idling — unlike the one-goroutine-per-workload layout
// this replaced, where one slow workload row serialized its whole column
// sweep while other goroutines sat done, and a grid with few workloads
// could not use more cores than rows.
//
// Results are deterministic: fn must derive everything from i (each grid
// cell replays its own deterministic stream into its own scheme), writes
// only to its own index, and so claim order cannot affect the outcome. All
// cells run even after a failure; the lowest-index error is returned.
func forEachCell(n int, fn func(i int) error) error {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	return forEachCellN(workers, n, fn)
}

// forEachCellObserved is forEachCell with live progress reporting: the
// upcoming n cells are announced on prog up front (so percentages and ETA
// are meaningful from the first completion) and each finished cell is
// counted as workers complete it. A nil prog reports nothing.
func forEachCellObserved(n int, prog *obs.Progress, fn func(i int) error) error {
	if prog != nil {
		prog.AddTotal(n)
		inner := fn
		fn = func(i int) error {
			err := inner(i)
			prog.Add(1)
			return err
		}
	}
	return forEachCell(n, fn)
}

// forEachCellN is forEachCell with an explicit worker count, split out so
// tests can drive a wide pool regardless of the host's core count.
func forEachCellN(workers, n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	errs := make([]error, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			errs[i] = fn(i)
		}
		return firstError(errs)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	return firstError(errs)
}

// firstError returns the lowest-index non-nil error, keeping the reported
// failure independent of goroutine scheduling.
func firstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
