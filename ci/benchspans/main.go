// Command benchspans measures the span tracer's overhead on the fidelity
// gate and writes the result as a BENCH_*.json record:
//
//   - gate_untraced: the warm-reuse gate with span tracing disabled
//     (rc.Spans nil) — the baseline every instrumented run is judged
//     against.
//   - gate_traced: the identical gate with a live tracer collecting the
//     full span hierarchy (fidelity check, plan, cells, warm state,
//     timing-model runs, cache hits).
//
// Each leg runs -iters times on fresh caches and the minimum wall clock
// is recorded, the standard way to measure instrumentation overhead under
// scheduler noise. The traced and untraced runs must verdict identically;
// benchspans exits non-zero if they differ. The design target is <2%
// overhead (DESIGN.md §11) — the measured percentage lands in the record's
// notes, and the tool warns loudly when the target is missed without
// failing, because a shared CI runner can blow past 2% on noise alone.
//
// Usage: go run ./ci/benchspans -writebacks 6000 -lines 512 -out BENCH_spans.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"strings"
	"time"

	"deuce/internal/exp"
	"deuce/internal/fidelity"
	"deuce/internal/obs/span"
)

// record mirrors the schema of BENCH_writehot.json so `deucereport
// record -bench` ingests it unchanged.
type record struct {
	Benchmark   string   `json:"benchmark"`
	Description string   `json:"description"`
	Date        string   `json:"date"`
	Goos        string   `json:"goos"`
	Goarch      string   `json:"goarch"`
	CPU         string   `json:"cpu"`
	Go          string   `json:"go"`
	Cores       int      `json:"cores"`
	Results     []result `json:"results"`
	Notes       string   `json:"notes"`
}

type result struct {
	Scheme      string `json:"scheme"`
	NsPerOp     int64  `json:"ns_per_op"`
	BytesPerOp  int64  `json:"bytes_per_op"`
	AllocsPerOp int64  `json:"allocs_per_op"`
}

func main() {
	writebacks := flag.Int("writebacks", 6000, "measured writebacks per workload")
	lines := flag.Int("lines", 512, "working-set lines per core")
	seed := flag.Int64("seed", 1, "workload generator seed")
	iters := flag.Int("iters", 2, "gate runs per leg; the minimum wall clock is recorded")
	out := flag.String("out", "BENCH_spans.json", "output JSON path")
	flag.Parse()

	exps := fidelity.Expectations()
	exp.SetWarmReuse(true)

	gate := func(label string, traced bool) (*fidelity.Report, time.Duration, int64) {
		var best time.Duration
		var bestSpans int64
		var report *fidelity.Report
		for i := 0; i < *iters; i++ {
			exp.ResetCache()
			exp.ResetReuse()
			rc := exp.RunConfig{Writebacks: *writebacks, Lines: *lines, Seed: *seed}
			var tracer *span.Tracer
			if traced {
				tracer = span.New()
				rc.Spans = tracer
			}
			start := time.Now()
			r, _, err := fidelity.Check(rc, exps)
			if err != nil {
				fatal("%s: %v", label, err)
			}
			elapsed := time.Since(start)
			fmt.Printf("%s[%d]: %v (%s; %d spans)\n", label, i,
				elapsed.Round(time.Millisecond), r.Summary(), tracer.Count())
			if report == nil {
				report = r
			} else if !reflect.DeepEqual(report, r) {
				fatal("%s: verdicts differ between iterations", label)
			}
			if best == 0 || elapsed < best {
				best = elapsed
				bestSpans = tracer.Count()
			}
		}
		return report, best, bestSpans
	}

	untracedReport, untraced, _ := gate("gate_untraced", false)
	tracedReport, traced, spans := gate("gate_traced", true)

	// An overhead number bought with different verdicts would mean the
	// tracer perturbs measurement; refuse to record it.
	if !reflect.DeepEqual(untracedReport, tracedReport) {
		fatal("traced gate verdicts differ from the untraced gate")
	}

	overhead := 100 * (float64(traced) - float64(untraced)) / float64(untraced)
	fmt.Printf("span overhead: %+.2f%% (%d spans; target <2%%)\n", overhead, spans)
	if overhead >= 2 {
		fmt.Fprintf(os.Stderr, "benchspans: WARNING: overhead %+.2f%% misses the <2%% target (noisy runner, or a span on a hot path)\n", overhead)
	}

	rec := record{
		Benchmark: "BenchmarkSpanTracing",
		Description: fmt.Sprintf("Full fidelity gate (deucereport check -experiment all, %d writebacks, %d lines — the CI gate scale) wall clock with span tracing off vs on, min of %d runs per leg. Regenerate with `make bench-spans`.",
			*writebacks, *lines, *iters),
		Date:   time.Now().Format("2006-01-02"),
		Goos:   runtime.GOOS,
		Goarch: runtime.GOARCH,
		CPU:    cpuModel(),
		Go:     runtime.Version(),
		Cores:  runtime.NumCPU(),
		Results: []result{
			{Scheme: "gate_untraced", NsPerOp: untraced.Nanoseconds()},
			{Scheme: "gate_traced", NsPerOp: traced.Nanoseconds()},
		},
		Notes: fmt.Sprintf("ns_per_op is one full gate invocation; bytes/allocs are not collected for whole-gate runs. The traced leg collected %d spans at %+.2f%% wall-clock overhead against the <2%% design target (DESIGN.md §11): spans sit at cell/experiment granularity — one small allocation plus a lock-free stack push each — never on the per-writeback hot path. Both legs verdict identically (enforced by this tool before writing).", spans, overhead),
	}
	blob, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		fatal("%v", err)
	}
	if err := os.WriteFile(*out, append(blob, '\n'), 0o644); err != nil {
		fatal("%v", err)
	}
	fmt.Printf("wrote %s\n", *out)
}

// cpuModel best-effort reads the CPU model name for the record header.
func cpuModel() string {
	blob, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(blob), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return ""
}

// fatal prints a formatted error and exits non-zero.
func fatal(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "benchspans: "+format+"\n", args...)
	os.Exit(1)
}
