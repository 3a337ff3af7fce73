// Package regress is the cross-run half of the observability story: an
// append-only JSONL ledger of runs, each carrying a flat metric map of
// what `deucereport check` measures — the fidelity values of every
// experiment table (IngestValues) and, for a traced gate, its span
// self-profile as wall-clock metrics (IngestSpanProfile). On top of the
// ledger it computes per-metric deltas against a chosen baseline with
// noise-aware thresholds (median-of-runs, minimum sample counts,
// benchstat-style percent-change reporting) and renders trends as
// markdown tables with unicode sparklines (obs.Sparkline).
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
	// Metrics is the flat name → value map. Names are namespaced by
	// ingestion source, e.g. "fidelity:fig10:flips/DEUCE",
	// "walltime:wall:ns".
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
