package exp

import (
	"reflect"
	"testing"

	"deuce/internal/core"
	"deuce/internal/wear"
	"deuce/internal/workload"
)

// setWarmReuse toggles the warm-state fast paths. Only tests turn them
// off, to get the cold reference the warm-forked results must equal.
func setWarmReuse(enabled bool) { warmReuseOff.Store(!enabled) }

// coldRun executes fn with warm-state reuse disabled and a cold cache, so
// its result reflects the historical per-cell behavior (fresh scheme,
// replayed warmup), then restores reuse for the caller.
func coldRun[T any](t *testing.T, fn func() (T, error)) T {
	t.Helper()
	setWarmReuse(false)
	ResetCache()
	defer func() {
		setWarmReuse(true)
		ResetCache()
	}()
	v, err := fn()
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestWarmFlipBitIdentical: warm-forked flip cells must be bit-identical
// to cold runs across schemes, seeds and geometries. The first warm call
// builds the shared warm state (one cold warmup); a second scheme over the
// same workload then forks it, and both must equal their cold twins.
func TestWarmFlipBitIdentical(t *testing.T) {
	profs := []string{"mcf", "libq"}
	kinds := []core.Kind{core.KindDeuce, core.KindEncrFNW, core.KindDynDeuce, core.KindINVMM}
	for _, seed := range []int64{0, 9} {
		for _, lines := range []int{64, 128} {
			rc := RunConfig{Writebacks: 400, Lines: lines, Seed: seed}
			for _, pn := range profs {
				prof, err := workload.ByName(pn)
				if err != nil {
					t.Fatal(err)
				}
				for _, kind := range kinds {
					cold := coldRun(t, func() (FlipResult, error) {
						return RunFlips(prof, kind, core.Params{}, rc, true)
					})
					setWarmReuse(true)
					ResetCache()
					ResetReuse()
					warm, err := RunFlips(prof, kind, core.Params{}, rc, true)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(cold, warm) {
						t.Errorf("%s/%s seed=%d lines=%d: warm-forked result diverges\n cold: %+v\n warm: %+v",
							pn, kind, seed, lines, cold, warm)
					}
				}
			}
		}
	}
	ResetCache()
}

// TestWarmForkActuallyForks: the second scheme sharing a warm stream must
// be served by a fork, not a cold warmup — otherwise the suite above only
// proves the cold path against itself.
func TestWarmForkActuallyForks(t *testing.T) {
	prof, err := workload.ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	rc := RunConfig{Writebacks: 300, Lines: 64, Seed: 5}
	setWarmReuse(true)
	ResetCache()
	t.Cleanup(ResetCache)
	ResetReuse()
	if _, err := RunFlips(prof, core.KindDeuce, core.Params{}, rc, false); err != nil {
		t.Fatal(err)
	}
	if _, err := RunFlips(prof, core.KindEncrFNW, core.Params{}, rc, false); err != nil {
		t.Fatal(err)
	}
	r := Reuse()
	if r.WarmForks < 2 {
		t.Errorf("expected both cells to fork the shared warm state, got WarmForks=%d (ColdWarmups=%d)",
			r.WarmForks, r.ColdWarmups)
	}
	if r.ColdWarmups != 2 {
		// One flip warm-scheme build per kind; the stream is shared.
		t.Errorf("expected exactly 2 cold warmups (one warm-scheme build per kind), got %d", r.ColdWarmups)
	}
}

// TestWarmPerfBitIdentical: warm-forked timed cells must match cold runs.
func TestWarmPerfBitIdentical(t *testing.T) {
	prof, err := workload.ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []core.Kind{core.KindDeuce, core.KindEncrFNW} {
		rc := RunConfig{Writebacks: 400, Lines: 64, Seed: 3}
		cold := coldRun(t, func() (PerfResult, error) {
			return RunPerf(prof, kind, core.Params{}, rc)
		})
		setWarmReuse(true)
		ResetCache()
		ResetReuse()
		warm, err := RunPerf(prof, kind, core.Params{}, rc)
		if err != nil {
			t.Fatal(err)
		}
		if cold != warm {
			t.Errorf("%s: warm-forked perf diverges\n cold: %+v\n warm: %+v",
				kind, cold, warm)
		}
	}
	ResetCache()
}

// TestWarmWearBitIdentical: wear cells cannot fork (wrapped array) but are
// memoized; the memoized result must equal the cold one, and the wear
// profile must be a caller-owned copy.
func TestWarmWearBitIdentical(t *testing.T) {
	prof, err := workload.ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	rc := RunConfig{Writebacks: 2000, Lines: 64, Seed: 2}
	cold := coldRun(t, func() (WearResult, error) {
		return RunWear(prof, core.KindDeuce, core.Params{}, wear.VWLOnly, 1, rc)
	})
	setWarmReuse(true)
	ResetCache()
	t.Cleanup(ResetCache)
	warm, err := RunWear(prof, core.KindDeuce, core.Params{}, wear.VWLOnly, 1, rc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Errorf("memoized wear cell diverges from cold run")
	}
	again, err := RunWear(prof, core.KindDeuce, core.Params{}, wear.VWLOnly, 1, rc)
	if err != nil {
		t.Fatal(err)
	}
	again.PositionWrites[0]++ // must not corrupt the cache
	final, err := RunWear(prof, core.KindDeuce, core.Params{}, wear.VWLOnly, 1, rc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cold.PositionWrites, final.PositionWrites) {
		t.Error("mutating a returned wear profile corrupted the cached copy")
	}
}

// TestWarmDisabledRestoresColdCounting: with reuse off, every cell must
// execute and warm up for itself. This proves the cold reference coldRun
// takes really runs cold, which is what makes the TestWarm*BitIdentical
// suites compare a warm fork against something other than itself.
func TestWarmDisabledRestoresColdCounting(t *testing.T) {
	prof, err := workload.ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	rc := RunConfig{Writebacks: 200, Lines: 64, Seed: 8}
	setWarmReuse(false)
	ResetCache()
	ResetReuse()
	defer func() {
		setWarmReuse(true)
		ResetCache()
	}()
	before := RunFlipsCalls()
	for i := 0; i < 2; i++ {
		if _, err := RunFlips(prof, core.KindDeuce, core.Params{}, rc, false); err != nil {
			t.Fatal(err)
		}
	}
	if got := RunFlipsCalls() - before; got != 2 {
		t.Errorf("reuse disabled: expected 2 executions, got %d", got)
	}
	r := Reuse()
	if r.WarmForks != 0 {
		t.Errorf("reuse disabled but WarmForks=%d", r.WarmForks)
	}
	if r.ColdWarmups != 2 {
		t.Errorf("expected 2 cold warmups, got %d", r.ColdWarmups)
	}
}
