package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"time"
)

// metric names one reported number and its unit. The tables below are the
// benchmark's whole vocabulary. BENCHMARK.json repeats endToEnd, with the
// regression bounds, and perLayer; TestMetricTablesMatchSpec keeps them in
// step.
type metric struct {
	name, unit string
}

// endToEnd are the numbers a user of the system sees, reported by every
// workload in its untraced pass. What one "op" is depends on the workload
// (a line write, a key-value request, an experiment cell); README.md has
// the per-workload definitions.
var endToEnd = []metric{
	{"setup_s", "s"},
	{"ops_per_s", "ops/s"},
	{"op_p50_us", "us"},
	{"op_p99_us", "us"},
	{"flips_per_write", "cells"},
	{"slots_per_write", "slots"},
	{"max_rss_mb", "MiB"},
}

// perLayer are the traced pass's numbers, one layer each, for every
// workload but the gate. Every traced run of them reports all of these; a
// layer the workload never calls reads 0.
var perLayer = []metric{
	// Write path: core scheme over the pcmdev array (write-*, durable-sync).
	{"core.write_ns", "ns"},
	{"core.self_ns", "ns"},
	{"pcmdev.write_ns", "ns"},
	{"pcmdev.peek_ns", "ns"},
	{"pcmdev.peeks_per_write", "count"},
	{"pcmdev.data_flips_per_write", "cells"},
	{"pcmdev.meta_flips_per_write", "cells"},
	{"core.epoch_reset_frac", "frac"},
	{"otp.pad_ns", "ns"},
	{"ctrstore.increment_ns", "ns"},
	{"bitutil.hamming_line_ns", "ns"},
	{"workload.gen_ns", "ns"},
	// Serving: servefront over kvstore over deuce.Memory (serve-zipf).
	{"servefront.get_ns", "ns"},
	{"servefront.put_ns", "ns"},
	{"servefront.get_p99_us", "us"},
	{"servefront.put_p99_us", "us"},
	{"kvstore.get_ns", "ns"},
	{"kvstore.put_ns", "ns"},
	{"servefront.wait_get_ns", "ns"},
	{"servefront.wait_put_ns", "ns"},
	{"kvstore.reads_per_get", "count"},
	{"kvstore.reads_per_put", "count"},
	{"servefront.shard_skew", "ratio"},
	{"serve.client_overhead_ns", "ns"},
	// Durability: Sync through the backends, persist and restart
	// (durable-sync).
	{"core.sync_p50_us", "us"},
	{"core.sync_p99_us", "us"},
	{"backend.array_sync_ns", "ns"},
	{"backend.counters_sync_ns", "ns"},
	{"backend.counters_writepage_ns", "ns"},
	{"ctrstore.pages_per_sync", "count"},
	{"backend.open_ns", "ns"},
	{"deuce.persist_ms", "ms"},
	{"deuce.reopen_ms", "ms"},
	{"deuce.restore_ms", "ms"},
	traceOverhead,
}

// gateLayers are the gate's traced numbers: span self times and exact
// counters of internal/exp.
var gateLayers = []metric{
	{"exp.gate_s", "s"},
	{"exp.cell_flip_s", "s"},
	{"exp.cell_perf_s", "s"},
	{"exp.cell_wear_s", "s"},
	{"exp.warmup_s", "s"},
	{"exp.warm_stream_s", "s"},
	{"exp.warm_scheme_s", "s"},
	{"timing.run_s", "s"},
	{"timing.shard_s", "s"},
	{"exp.plan_s", "s"},
	{"fidelity.evaluate_s", "s"},
	{"exp.critical_path_s", "s"},
	{"exp.parallelism", "ratio"},
	{"exp.run_perf_calls", "count"},
	{"exp.run_flips_calls", "count"},
	{"exp.cache_hits", "count"},
	{"exp.cache_misses", "count"},
	{"exp.warm_forks", "count"},
	{"exp.cold_warmups", "count"},
	traceOverhead,
}

// traceOverhead is every workload's untraced ops_per_s over its traced
// ops_per_s (the gate: traced over untraced wall clock).
var traceOverhead = metric{"bench.trace_overhead", "ratio"}

// run is one workload execution in one process: its settings, the samples
// it collects per metric, and its correctness tally.
type run struct {
	workload string
	layers   []metric // the traced pass's table
	seed     int64
	seconds  time.Duration
	trace    bool
	sc       scale
	// workdir holds the run's scratch files; it lives inside the checkout
	// so a run reads and writes nothing outside it.
	workdir string

	samples   map[string][]float64
	attempted int64
	failed    int64
	segments  int
	log       io.Writer
}

func newRun(w benchWorkload, seed int64, seconds time.Duration, trace bool, sc scale, workdir string) *run {
	return &run{
		workload: w.name, layers: w.layers, seed: seed, seconds: seconds, trace: trace, sc: sc,
		workdir: workdir, samples: make(map[string][]float64), log: os.Stderr,
	}
}

// add records one sample of a metric; summarize reduces a metric's samples
// to the value reported.
func (r *run) add(name string, v float64) {
	r.samples[name] = append(r.samples[name], v)
}

// check counts one verified output, reporting it when it is wrong.
func (r *run) check(ok bool, format string, args ...interface{}) {
	var bad int64
	if !ok {
		bad = 1
	}
	r.checkN(1, bad, format, args...)
}

// checkN counts n verified outputs of which bad were wrong.
func (r *run) checkN(n, bad int64, format string, args ...interface{}) {
	r.attempted += n
	if bad == 0 {
		return
	}
	r.failed += bad
	if r.failed-bad < 20 { // the first failures say enough
		fmt.Fprintf(r.log, "%s: FAIL %s\n", r.workload, fmt.Sprintf(format, args...))
	}
}

// stat is a reported metric with its spread: its value, the quartiles of
// its samples, and how many there were.
type stat struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	N     int     `json:"n"`
}

// fastestTenth names the per-segment timings reported as the mean of the
// run's fastest tenth of segments instead of their median, each with
// whether higher is faster. On a shared host, other tenants only ever slow
// a segment down, and how much of a run they take varies from run to run;
// the fastest segments of a run vary far less across runs than its median
// segment does (README.md gives the measurements). Every other metric
// reports the median of its samples.
var fastestTenth = map[string]bool{"ops_per_s": true, "op_p50_us": false, "op_p99_us": false}

// fastestTenthMean is the mean of the best tenth (at least one) of xs.
func fastestTenthMean(xs []float64, higherIsFaster bool) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if higherIsFaster {
		for i, j := 0, len(s)-1; i < j; i, j = i+1, j-1 {
			s[i], s[j] = s[j], s[i]
		}
	}
	k := (len(s) + 9) / 10
	sum := 0.0
	for _, v := range s[:k] {
		sum += v
	}
	return sum / float64(k)
}

// summarize reduces a run's samples to one stat per metric of the mode's
// table. A metric without samples reads 0 (a layer the workload never
// calls); an end-to-end metric without samples is a bug in the workload.
func (r *run) summarize() (map[string]stat, error) {
	table := endToEnd
	if r.trace {
		table = r.layers
	}
	out := make(map[string]stat, len(table))
	for _, m := range table {
		s := r.samples[m.name]
		if len(s) == 0 && !r.trace {
			return nil, fmt.Errorf("%s: end-to-end metric %s was not measured", r.workload, m.name)
		}
		for _, v := range s {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("%s: metric %s is not finite", r.workload, m.name)
			}
		}
		q1, v, q3 := quartiles(s)
		if higher, ok := fastestTenth[m.name]; ok {
			v = fastestTenthMean(s, higher)
		}
		out[m.name] = stat{Value: v, Unit: m.unit, Q1: q1, Q3: q3, N: len(s)}
	}
	return out, nil
}

// quartiles returns the first quartile, median and third quartile of xs
// with the method of Python's statistics.quantiles(n=4) (the default
// "exclusive" one), so spreads read here match Python's. A single sample
// is its own quartiles; none reads 0.
func quartiles(xs []float64) (q1, med, q3 float64) {
	switch len(xs) {
	case 0:
		return 0, 0, 0
	case 1:
		return xs[0], xs[0], xs[0]
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4 // outside [0, 4] when clamped: Python extrapolates
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), median(s), cut(3)
}

// median of an already sorted slice.
func median(s []float64) float64 {
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank q-quantile of the latencies, sorting
// them in place.
func percentile(lat []time.Duration, q float64) time.Duration {
	if len(lat) == 0 {
		return 0
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	return sortedPercentile(lat, q)
}

// sortedPercentile is percentile over an already sorted slice.
func sortedPercentile(lat []time.Duration, q float64) time.Duration {
	i := int(math.Ceil(q*float64(len(lat)))) - 1
	if i < 0 {
		i = 0
	}
	return lat[i]
}

// addLatencies records one segment's ops_per_s, op_p50_us and op_p99_us.
func (r *run) addLatencies(lat []time.Duration, wall time.Duration) {
	r.add("ops_per_s", float64(len(lat))/wall.Seconds())
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	r.add("op_p50_us", us(sortedPercentile(lat, 0.50)))
	r.add("op_p99_us", us(sortedPercentile(lat, 0.99)))
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// perOp is total/n for reporting, 0 when nothing was counted.
func perOp(total, n int64) float64 {
	if n == 0 {
		return 0
	}
	return float64(total) / float64(n)
}

// final is the last line of a run's standard output: whether every
// checked output was right, how many were checked and wrong, and every
// metric's value and unit.
type final struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// detail is the line before it: the same run with quartiles, sample
// counts and the host it ran on. The all-workloads mode collects these
// into its result file.
type detail struct {
	Workload  string          `json:"workload"`
	Trace     bool            `json:"trace"`
	Seed      int64           `json:"seed"`
	Seconds   float64         `json:"seconds"`
	Segments  int             `json:"segments"`
	Host      host            `json:"host"`
	Correct   bool            `json:"correct"`
	Attempted int64           `json:"attempted"`
	Failed    int64           `json:"failed"`
	Metrics   map[string]stat `json:"metrics"`
}

// detailPrefix marks the detail line in a run's output.
const detailPrefix = "detail: "

// report prints every metric by name with its unit, then the detail line,
// then the result line.
func (r *run) report(w io.Writer) (bool, error) {
	stats, err := r.summarize()
	if err != nil {
		return false, err
	}
	table := endToEnd
	if r.trace {
		table = r.layers
	}
	for _, m := range table {
		s := stats[m.name]
		fmt.Fprintf(w, "%-13s %-30s %14.6g %-6s (q1 %.6g, q3 %.6g, n=%d)\n",
			r.workload, m.name, s.Value, s.Unit, s.Q1, s.Q3, s.N)
	}
	correct := r.failed == 0 && r.attempted > 0
	d := detail{
		Workload: r.workload, Trace: r.trace, Seed: r.seed, Seconds: r.seconds.Seconds(),
		Segments: r.segments, Host: hostStamp(), Correct: correct,
		Attempted: r.attempted, Failed: r.failed, Metrics: stats,
	}
	f := final{Correct: correct, Attempted: r.attempted, Failed: r.failed, Metrics: make(map[string]value, len(stats))}
	for name, s := range stats {
		f.Metrics[name] = value{Value: s.Value, Unit: s.Unit}
	}
	db, err := json.Marshal(d)
	if err != nil {
		return false, err
	}
	fb, err := json.Marshal(f)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "%s%s\n%s\n", detailPrefix, db, fb)
	return correct, nil
}
