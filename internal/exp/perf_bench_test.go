package exp

import (
	"flag"
	"testing"

	"deuce/internal/core"
	"deuce/internal/workload"
)

// timedCellBody times one cold perf cell (mcf × deuce) per iteration. The
// process-wide cache is reset before every iteration, so each one warms up
// and simulates for real instead of being served a memoized result; the
// RunPerfCalls check makes a silent cache hit fail the benchmark rather
// than report a microsecond-scale number.
func timedCellBody(rc RunConfig) func(b *testing.B) {
	return func(b *testing.B) {
		prof, err := workload.ByName("mcf")
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ResetCache()
			before := RunPerfCalls()
			if _, err := RunPerf(prof, core.KindDeuce, core.Params{}, rc); err != nil {
				b.Fatal(err)
			}
			if got := RunPerfCalls() - before; got != 1 {
				b.Fatalf("iteration %d executed %d perf cells, want exactly 1", i, got)
			}
		}
	}
}

// BenchmarkTimedCell measures one timed perf-grid cell (RunPerf, the unit
// the fidelity gate's 48-cell grid repeats) at the CI gate scale: 6000
// writebacks, 512 lines, caches reset every iteration. Regenerate
// BENCH_timing.json with `make bench-timing`.
func BenchmarkTimedCell(b *testing.B) {
	b.Run("mcf-deuce", timedCellBody(RunConfig{Writebacks: 6000, Lines: 512, Seed: 1}))
}

// TestTimedCellBodyExecutes drives the benchmark body through
// testing.Benchmark for a few iterations (at a smaller scale) and checks
// that every iteration executed a cell: the body must not degrade into
// timing cache hits.
func TestTimedCellBodyExecutes(t *testing.T) {
	bt := flag.Lookup("test.benchtime")
	if bt == nil {
		t.Fatal("test.benchtime flag not registered")
	}
	prev := bt.Value.String()
	if err := bt.Value.Set("3x"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := bt.Value.Set(prev); err != nil {
			t.Error(err)
		}
		ResetCache()
	})
	body := timedCellBody(RunConfig{Writebacks: 300, Lines: 64, Seed: 1})
	iters := 0
	before := RunPerfCalls()
	res := testing.Benchmark(func(b *testing.B) {
		iters += b.N
		body(b)
	})
	if res.N == 0 {
		t.Fatal("benchmark body failed")
	}
	if got := RunPerfCalls() - before; got != int64(iters) {
		t.Errorf("RunPerfCalls advanced %d over %d iterations, want one per iteration", got, iters)
	}
	if res.N != 3 {
		t.Errorf("ran the final round at b.N=%d, want 3", res.N)
	}
}
