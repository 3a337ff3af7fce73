// Package regress is the cross-run half of the observability story: an
// append-only JSONL ledger of runs, each carrying a flat metric map
// ingested from the sources the repository already produces — fidelity
// check values, obs.Registry snapshots (-metrics out.json), runmeta.json
// manifests, BENCH_writehot.json-style benchmark records, and raw
// `go test -bench` output. On top of the ledger it computes per-metric
// deltas against a chosen baseline with noise-aware thresholds
// (median-of-runs, minimum sample counts, benchstat-style percent-change
// reporting) and renders trends as markdown tables with unicode
// sparklines (obs.Sparkline).
//
// Concurrency: the ledger is a plain file with no locking — one writer at
// a time, which CI guarantees by construction (each job appends from a
// single process). Loaded runs and comparison results are immutable
// values, safe to read from anywhere.
package regress

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"deuce/internal/obs"
	"deuce/internal/obs/span"
)

// Run is one ledger entry: a labelled, timestamped bag of metrics.
type Run struct {
	// ID labels the run ("baseline", "pr-1234", a commit SHA).
	ID string `json:"id"`
	// Time is when the run was recorded.
	Time time.Time `json:"time"`
	// Source describes what produced the metrics (tool, CI job).
	Source string `json:"source,omitempty"`
	// Commit is the VCS revision, when known (from runmeta build info).
	Commit string `json:"commit,omitempty"`
	// Metrics is the flat name → value map. Names are namespaced by
	// ingestion source, e.g. "fidelity:fig10:flips/DEUCE",
	// "bench:WriteHot/deuce:ns_per_op", "metrics:write_flips:mean".
	Metrics map[string]float64 `json:"metrics"`
}

// Set records one metric on the run.
func (r *Run) Set(name string, v float64) {
	if r.Metrics == nil {
		r.Metrics = make(map[string]float64)
	}
	r.Metrics[name] = v
}

// Append appends the run as one JSON line to the ledger at path, creating
// the file (and parent directories) if needed. The ledger is append-only:
// re-recording an ID adds a new entry rather than rewriting history, and
// readers resolve an ID to its latest entry.
func Append(path string, r Run) error {
	if r.ID == "" {
		return fmt.Errorf("regress: run needs a non-empty ID")
	}
	if r.Time.IsZero() {
		r.Time = time.Now().UTC()
	}
	blob, err := json.Marshal(r)
	if err != nil {
		return err
	}
	if dir := filepath.Dir(path); dir != "." && dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	if _, err := f.Write(append(blob, '\n')); err != nil {
		return err
	}
	return f.Sync()
}

// WriteAll replaces the ledger at path with the given runs, in order,
// creating parent directories as needed. It exists for ledger
// maintenance (seeding a fresh CI cache from a committed fallback,
// compacting history) — ordinary recording should Append.
func WriteAll(path string, runs []Run) error {
	if dir := filepath.Dir(path); dir != "." && dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	var b strings.Builder
	for _, r := range runs {
		if r.ID == "" {
			return fmt.Errorf("regress: run needs a non-empty ID")
		}
		blob, err := json.Marshal(r)
		if err != nil {
			return err
		}
		b.Write(blob)
		b.WriteByte('\n')
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

// Compact rewrites the ledger keeping only the newest keep runs (ledger
// order, so history stays contiguous) and returns how many remain. A
// persisted CI ledger grows by one run per build; compaction bounds the
// cache entry without touching the retained entries. keep < 1 or a
// ledger already within bounds is a no-op.
func Compact(path string, keep int) (int, error) {
	runs, err := Load(path)
	if err != nil {
		return 0, err
	}
	if keep < 1 || len(runs) <= keep {
		return len(runs), nil
	}
	kept := runs[len(runs)-keep:]
	if err := WriteAll(path, kept); err != nil {
		return 0, err
	}
	return len(kept), nil
}

// Load reads every run in the ledger, in append order. A missing file is
// an empty ledger, not an error. Malformed lines abort with the line
// number, so a corrupted ledger fails loudly instead of silently
// truncating history.
func Load(path string) ([]Run, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}

// Read parses a JSONL run stream.
func Read(r io.Reader) ([]Run, error) {
	var runs []Run
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var run Run
		if err := json.Unmarshal([]byte(line), &run); err != nil {
			return nil, fmt.Errorf("regress: ledger line %d: %w", lineNo, err)
		}
		runs = append(runs, run)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return runs, nil
}

// Find resolves an ID to its latest ledger entry. The special forms
// "HEAD" (latest run) and "HEAD~n" (n runs before the latest) address by
// position instead of label.
func Find(runs []Run, id string) (Run, error) {
	if id == "HEAD" || strings.HasPrefix(id, "HEAD~") {
		back := 0
		if strings.HasPrefix(id, "HEAD~") {
			n, err := strconv.Atoi(strings.TrimPrefix(id, "HEAD~"))
			if err != nil || n < 0 {
				return Run{}, fmt.Errorf("regress: bad run reference %q", id)
			}
			back = n
		}
		if back >= len(runs) {
			return Run{}, fmt.Errorf("regress: %q is beyond the ledger's %d runs", id, len(runs))
		}
		return runs[len(runs)-1-back], nil
	}
	for i := len(runs) - 1; i >= 0; i-- {
		if runs[i].ID == id {
			return runs[i], nil
		}
	}
	return Run{}, fmt.Errorf("regress: no run %q in ledger (%d runs)", id, len(runs))
}

// History returns the values a metric took across the given runs, in
// order, skipping runs that lack it; idx maps each value back to its run.
func History(runs []Run, metric string) (vals []float64, idx []int) {
	for i, r := range runs {
		if v, ok := r.Metrics[metric]; ok {
			vals = append(vals, v)
			idx = append(idx, i)
		}
	}
	return vals, idx
}

// MetricNames returns the union of metric names across runs, sorted.
func MetricNames(runs []Run) []string {
	seen := make(map[string]bool)
	for _, r := range runs {
		for name := range r.Metrics {
			seen[name] = true
		}
	}
	names := make([]string, 0, len(seen))
	for name := range seen {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Baseline collapses runs into a synthetic median-of-runs baseline: each
// metric takes its median value across the runs that report it, provided
// at least minN of them do — metrics with fewer samples are dropped as
// too noisy to gate on. This is the noise-aware anchor Compare measures
// against, in the spirit of benchstat's refusal to judge single samples.
func Baseline(runs []Run, minN int) (Run, error) {
	if len(runs) == 0 {
		return Run{}, fmt.Errorf("regress: baseline over zero runs")
	}
	if minN < 1 {
		minN = 1
	}
	out := Run{ID: fmt.Sprintf("median-of-%d", len(runs)), Time: runs[len(runs)-1].Time, Source: "baseline"}
	for _, name := range MetricNames(runs) {
		vals, _ := History(runs, name)
		if len(vals) < minN {
			continue
		}
		out.Set(name, median(vals))
	}
	return out, nil
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// --- Ingestion -----------------------------------------------------------

// IngestSnapshotJSON merges an obs.Snapshot JSON export (the cmds'
// -metrics flag) into the run: counters and gauges verbatim, histograms
// as :mean and :n derived metrics. Names are prefixed "metrics:".
func IngestSnapshotJSON(run *Run, r io.Reader) error {
	var snap obs.Snapshot
	if err := json.NewDecoder(r).Decode(&snap); err != nil {
		return fmt.Errorf("regress: metrics snapshot: %w", err)
	}
	for name, v := range snap.Counters {
		run.Set("metrics:"+name, float64(v))
	}
	for name, v := range snap.Gauges {
		run.Set("metrics:"+name, v)
	}
	for name, h := range snap.Hists {
		run.Set("metrics:"+name+":mean", h.Mean())
		run.Set("metrics:"+name+":n", float64(h.N))
	}
	return nil
}

// runMetaDoc mirrors the fields of obs.RunMeta the ledger cares about.
// Parsing into a local shadow (rather than obs.RunMeta itself) keeps
// ingestion tolerant of manifest additions; the schema-stability golden
// test in internal/obs guards the fields relied on here.
type runMetaDoc struct {
	Tool  string `json:"tool"`
	Build struct {
		GitSHA string `json:"git_sha"`
	} `json:"build"`
	DurationMs float64 `json:"duration_ms"`
}

// IngestRunMetaJSON merges a runmeta.json manifest: the run duration as a
// metric, plus tool and commit identity on the Run itself.
func IngestRunMetaJSON(run *Run, r io.Reader) error {
	var doc runMetaDoc
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return fmt.Errorf("regress: runmeta: %w", err)
	}
	if doc.Tool != "" {
		if run.Source == "" {
			run.Source = doc.Tool
		}
		run.Set("run:"+doc.Tool+":duration_ms", doc.DurationMs)
	} else {
		run.Set("run:duration_ms", doc.DurationMs)
	}
	if run.Commit == "" {
		run.Commit = doc.Build.GitSHA
	}
	return nil
}

// benchDoc mirrors BENCH_writehot.json.
type benchDoc struct {
	Benchmark string `json:"benchmark"`
	Results   []struct {
		Scheme      string  `json:"scheme"`
		NsPerOp     float64 `json:"ns_per_op"`
		BytesPerOp  float64 `json:"bytes_per_op"`
		AllocsPerOp float64 `json:"allocs_per_op"`
	} `json:"results"`
}

// IngestBenchJSON merges a BENCH_writehot.json-style benchmark record as
// "bench:<benchmark>/<scheme>:{ns_per_op,bytes_per_op,allocs_per_op}".
// The "Benchmark" function-name prefix is stripped, matching
// IngestBenchText, so a JSON baseline and raw -bench output of the same
// benchmark land on the same metric names.
func IngestBenchJSON(run *Run, r io.Reader) error {
	var doc benchDoc
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return fmt.Errorf("regress: bench json: %w", err)
	}
	name := strings.TrimPrefix(doc.Benchmark, "Benchmark")
	if name == "" {
		name = "bench"
	}
	for _, res := range doc.Results {
		pre := "bench:" + name + "/" + res.Scheme + ":"
		run.Set(pre+"ns_per_op", res.NsPerOp)
		run.Set(pre+"bytes_per_op", res.BytesPerOp)
		run.Set(pre+"allocs_per_op", res.AllocsPerOp)
	}
	return nil
}

// IngestBenchText parses standard `go test -bench` output lines, e.g.
//
//	BenchmarkWriteHot/deuce-8  1000  1122 ns/op  0 B/op  0 allocs/op
//
// into "bench:<Name>/<sub>:{ns_per_op,bytes_per_op,allocs_per_op}" (the
// -N GOMAXPROCS suffix is stripped so names match across machines).
// Custom metrics ("22.5 deuce%") become "bench:<name>:<unit>" entries.
func IngestBenchText(run *Run, r io.Reader) error {
	sc := bufio.NewScanner(r)
	found := 0
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 3 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := strings.TrimPrefix(fields[0], "Benchmark")
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		// fields[1] is the iteration count; pairs of (value, unit) follow.
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			unit := unitMetric(fields[i+1])
			run.Set("bench:"+name+":"+unit, v)
			found++
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if found == 0 {
		return fmt.Errorf("regress: no benchmark lines found in input")
	}
	return nil
}

// unitMetric normalizes a go-bench unit ("ns/op", "B/op", "allocs/op",
// "deuce%") into a metric-name suffix.
func unitMetric(unit string) string {
	switch unit {
	case "ns/op":
		return "ns_per_op"
	case "B/op":
		return "bytes_per_op"
	case "allocs/op":
		return "allocs_per_op"
	}
	u := strings.NewReplacer("/", "_per_", "%", "_pct").Replace(unit)
	return u
}

// IngestSpanProfile merges a span self-profile (the `check -spans`
// self-profile.json artifact) as wall-clock timing metrics: the tree's
// extent as "walltime:wall:ns" and each span name's cumulative and self
// times as "walltime:<name>:{total_ns,self_ns}". Walltime metrics measure
// how long the gate took rather than what it computed, so compare gates
// them under their own looser threshold (-walltime-threshold) instead of
// the value-drift threshold — see IsWalltime.
func IngestSpanProfile(run *Run, r io.Reader) error {
	p, err := span.ReadProfileJSON(r)
	if err != nil {
		return fmt.Errorf("regress: span profile: %w", err)
	}
	run.Set("walltime:wall:ns", float64(p.WallNs))
	for _, e := range p.Entries {
		run.Set("walltime:"+e.Name+":total_ns", float64(e.TotalNs))
		run.Set("walltime:"+e.Name+":self_ns", float64(e.SelfNs))
	}
	return nil
}

// IsWalltime reports whether the metric lives in the "walltime:"
// namespace — a wall-clock duration rather than a simulated value.
// Durations are noisy across machines and loads, so the compare gate
// holds them to a separate, explicitly opted-into threshold.
func IsWalltime(metric string) bool { return strings.HasPrefix(metric, "walltime:") }

// IngestValues merges experiment values (exp.Table.Values, or the full
// fidelity collection) under "fidelity:<experiment>:<metric>".
func IngestValues(run *Run, experiment string, values map[string]float64) {
	for name, v := range values {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		run.Set("fidelity:"+experiment+":"+name, v)
	}
}
