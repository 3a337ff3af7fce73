package deuce

// One benchmark per table and figure in the paper's evaluation. Each bench
// runs the corresponding experiment at a reduced-but-stable size and
// reports the experiment's headline quantity as a custom metric, so
// `go test -bench=. -benchmem` regenerates the whole evaluation and
// EXPERIMENTS.md can be checked against its output. cmd/deucebench runs
// the same experiments at full size with per-workload tables.

import (
	"flag"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"deuce/internal/core"
	"deuce/internal/exp"
)

// benchRC is the per-iteration experiment size: large enough for stable
// averages, small enough that a full -bench=. sweep finishes in minutes.
func benchRC() exp.RunConfig {
	return exp.RunConfig{Writebacks: 6000, Lines: 512, Seed: 1}
}

// lastRowPercents extracts the numeric cells of a table's final (average)
// row, parsing "42.7%" or "2.64" style cells.
func lastRowPercents(t *exp.Table) []float64 {
	if len(t.Rows) == 0 {
		return nil
	}
	row := t.Rows[len(t.Rows)-1]
	var out []float64
	for _, cell := range row[1:] {
		s := strings.TrimSuffix(strings.TrimSuffix(cell, "%"), "x")
		if v, err := strconv.ParseFloat(s, 64); err == nil {
			out = append(out, v)
		}
	}
	return out
}

// experimentBody runs experiment id at rc once per iteration and reports
// the final table's average row as custom metrics. The process-wide
// experiment cache is reset before every iteration, and the body fails
// unless each iteration executes experiment cells (RunPerf or RunFlips), so
// no iteration after the first is timed as a memoized hit.
func experimentBody(id string, rc exp.RunConfig, metricNames []string) func(*testing.B) {
	return func(b *testing.B) {
		e, err := exp.ByID(id)
		if err != nil {
			b.Fatal(err)
		}
		var table *exp.Table
		for i := 0; i < b.N; i++ {
			exp.ResetCache()
			before := exp.RunPerfCalls() + exp.RunFlipsCalls()
			table, err = e.Run(rc)
			if err != nil {
				b.Fatal(err)
			}
			if exp.RunPerfCalls()+exp.RunFlipsCalls() == before {
				b.Fatalf("%s iteration %d executed no experiment cells", id, i)
			}
		}
		for i, v := range lastRowPercents(table) {
			name := "value"
			if i < len(metricNames) {
				name = metricNames[i]
			}
			b.ReportMetric(v, name)
		}
	}
}

// runExperiment is the shared bench body at the benchRC size.
func runExperiment(b *testing.B, id string, metricNames []string) {
	b.Helper()
	experimentBody(id, benchRC(), metricNames)(b)
}

// TestExperimentBodiesExecute drives the experiment benchmarks' body
// through testing.Benchmark for three iterations at toy scale; the body
// itself fails any iteration that executes no cells, so no experiment
// benchmark can silently degrade into timing cache hits. fig14 is left to
// its benchmark: its wear cells run at least 40000 writebacks whatever the
// scale, about 20 s per iteration.
func TestExperimentBodiesExecute(t *testing.T) {
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
		exp.ResetCache()
	})
	rc := exp.RunConfig{Writebacks: 300, Lines: 64, Seed: 1}
	for _, id := range []string{"fig5", "fig8", "fig9", "fig10", "table3", "fig12", "fig15", "fig16", "fig17", "fig18"} {
		if res := testing.Benchmark(experimentBody(id, rc, nil)); res.N != 3 {
			t.Errorf("%s: benchmark body failed or ran its final round at b.N=%d, want 3", id, res.N)
		}
	}
}

// BenchmarkFig5 regenerates Figure 5: modified bits per write for
// unencrypted vs encrypted memory under DCW and FNW
// (paper: 12.2% / 10.5% / 50% / 43%).
func BenchmarkFig5(b *testing.B) {
	runExperiment(b, "fig5", []string{"noencr-dcw%", "noencr-fnw%", "encr-dcw%", "encr-fnw%"})
}

// BenchmarkFig8 regenerates Figure 8: DEUCE word-size sensitivity
// (paper: 21.4% / 23.7% / 26.8% / 32.2% for 1/2/4/8-byte words).
func BenchmarkFig8(b *testing.B) {
	runExperiment(b, "fig8", []string{"1B%", "2B%", "4B%", "8B%"})
}

// BenchmarkFig9 regenerates Figure 9: DEUCE epoch-interval sensitivity
// (paper: 24.8% / 24.0% / 23.7% for epochs 8/16/32).
func BenchmarkFig9(b *testing.B) {
	runExperiment(b, "fig9", []string{"epoch8%", "epoch16%", "epoch32%"})
}

// BenchmarkFig10 regenerates Figure 10: the headline scheme comparison
// (paper: 43% / 23.7% / 22.0% / 20.3% / 10.5%).
func BenchmarkFig10(b *testing.B) {
	runExperiment(b, "fig10", []string{"encr-fnw%", "deuce%", "dyndeuce%", "deuce-fnw%", "noencr-fnw%"})
}

// BenchmarkTable3 regenerates Table 3: storage overhead vs average flips.
func BenchmarkTable3(b *testing.B) {
	runExperiment(b, "table3", nil)
}

// BenchmarkFig12 regenerates Figure 12: per-bit-position write skew
// (paper: ~6x for mcf, ~27x for libquantum).
func BenchmarkFig12(b *testing.B) {
	runExperiment(b, "fig12", []string{"libq-max/avg", "libq-p99", "libq-median"})
}

// BenchmarkFig14 regenerates Figure 14: lifetime normalized to encrypted
// memory (paper: 1.14x FNW, 1.11x DEUCE, 2.0x DEUCE+HWL).
func BenchmarkFig14(b *testing.B) {
	runExperiment(b, "fig14", []string{"fnw-x", "deuce-x", "deuce-hwl-x"})
}

// BenchmarkFig15 regenerates Figure 15: write slots per write request
// (paper: 4.0 / ~3.97 / 2.64 / 1.92).
func BenchmarkFig15(b *testing.B) {
	runExperiment(b, "fig15", []string{"encr-slots", "encr-fnw-slots", "deuce-slots", "noencr-slots"})
}

// BenchmarkFig16 regenerates Figure 16: speedup over encrypted memory
// (paper: ~1.0 / 1.27 / 1.40).
func BenchmarkFig16(b *testing.B) {
	runExperiment(b, "fig16", []string{"encr-fnw-x", "deuce-x", "noencr-fnw-x"})
}

// BenchmarkFig17 regenerates Figure 17: speedup, memory energy, memory
// power and system EDP (paper DEUCE row: 1.27 / 0.57 / 0.72 / 0.57).
func BenchmarkFig17(b *testing.B) {
	runExperiment(b, "fig17", nil)
}

// BenchmarkFig18 regenerates Figure 18: DEUCE with Block-Level Encryption
// (paper: 33% BLE, 24% DEUCE, 19.9% BLE+DEUCE).
func BenchmarkFig18(b *testing.B) {
	runExperiment(b, "fig18", []string{"ble%", "deuce%", "ble-deuce%"})
}

// --- Ablation and microbenchmarks beyond the paper's figures ---

// BenchmarkWriteHot measures the steady-state write path alone: every line
// is installed before the timer starts, so the loop exercises exactly the
// zero-allocation scratch-buffer path that the AllocsPerRun tests in
// internal/core pin down. This is the benchmark `make check` smokes and the
// one BENCH_writehot.json baselines.
func BenchmarkWriteHot(b *testing.B) {
	for _, k := range core.Kinds() {
		k := k
		b.Run(string(k), func(b *testing.B) {
			s, err := core.New(k, core.Params{Lines: 1024})
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(1))
			data := make([]byte, 64)
			rng.Read(data)
			for i := 0; i < 1024; i++ {
				s.Write(uint64(i), data) // install, off the clock
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				data[rng.Intn(64)] = byte(rng.Int())
				s.Write(uint64(i%1024), data)
			}
		})
	}
}

// BenchmarkSchemeWrite measures per-scheme write cost for a sparse update
// stream: the simulation-throughput companion to Figure 10.
func BenchmarkSchemeWrite(b *testing.B) {
	for _, k := range core.Kinds() {
		k := k
		b.Run(string(k), func(b *testing.B) {
			s, err := core.New(k, core.Params{Lines: 1024})
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(1))
			data := make([]byte, 64)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				data[rng.Intn(64)] = byte(rng.Int())
				s.Write(uint64(i%1024), data)
			}
		})
	}
}
