package regress

import (
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestAppendLoadRoundtrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sub", "ledger.jsonl")
	r1 := Run{ID: "a", Source: "test", Metrics: map[string]float64{"x": 1, "y": 2.5}}
	r2 := Run{ID: "b", Metrics: map[string]float64{"x": 3}}
	if err := Append(path, r1); err != nil {
		t.Fatal(err)
	}
	if err := Append(path, r2); err != nil {
		t.Fatal(err)
	}
	runs, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 2 {
		t.Fatalf("loaded %d runs, want 2", len(runs))
	}
	if runs[0].ID != "a" || runs[0].Metrics["y"] != 2.5 || runs[1].Metrics["x"] != 3 {
		t.Errorf("roundtrip mangled runs: %+v", runs)
	}
	if runs[0].Time.IsZero() {
		t.Error("Append did not stamp a time")
	}
	if err := Append(path, Run{Metrics: map[string]float64{"x": 1}}); err == nil {
		t.Error("Append accepted an empty run ID")
	}
}

func TestLoadMissingAndMalformed(t *testing.T) {
	runs, err := Load(filepath.Join(t.TempDir(), "absent.jsonl"))
	if err != nil || runs != nil {
		t.Errorf("missing ledger should be empty, got %v, %v", runs, err)
	}
	_, err = Read(strings.NewReader("{\"id\":\"ok\",\"metrics\":{}}\nnot json\n"))
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Errorf("malformed line should fail with its line number, got %v", err)
	}
}

func TestFind(t *testing.T) {
	runs := []Run{
		{ID: "a", Metrics: map[string]float64{"v": 1}},
		{ID: "b", Metrics: map[string]float64{"v": 2}},
		{ID: "a", Metrics: map[string]float64{"v": 3}}, // re-recorded: latest wins
	}
	if r, err := Find(runs, "a"); err != nil || r.Metrics["v"] != 3 {
		t.Errorf("Find(a) = %v, %v; want latest entry v=3", r.Metrics, err)
	}
	if r, err := Find(runs, "HEAD"); err != nil || r.Metrics["v"] != 3 {
		t.Errorf("Find(HEAD) = %v, %v", r.Metrics, err)
	}
	if r, err := Find(runs, "HEAD~2"); err != nil || r.Metrics["v"] != 1 {
		t.Errorf("Find(HEAD~2) = %v, %v", r.Metrics, err)
	}
	if _, err := Find(runs, "HEAD~3"); err == nil {
		t.Error("Find(HEAD~3) beyond ledger should fail")
	}
	if _, err := Find(runs, "nope"); err == nil {
		t.Error("Find(nope) should fail")
	}
}

func TestBaselineMedian(t *testing.T) {
	runs := []Run{
		{ID: "1", Metrics: map[string]float64{"ns": 100, "rare": 7}},
		{ID: "2", Metrics: map[string]float64{"ns": 300}},
		{ID: "3", Metrics: map[string]float64{"ns": 110}},
		{ID: "4", Metrics: map[string]float64{"ns": 120}},
	}
	b, err := Baseline(runs, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Even count: median of {100,110,120,300} = 115 — the 300 outlier must
	// not drag the baseline the way a mean would.
	if got := b.Metrics["ns"]; got != 115 {
		t.Errorf("median ns = %v, want 115", got)
	}
	if _, ok := b.Metrics["rare"]; ok {
		t.Error("metric with 1 sample survived minN=2")
	}
	if _, err := Baseline(nil, 1); err == nil {
		t.Error("Baseline over zero runs should fail")
	}
}

func TestCompareAndSignificance(t *testing.T) {
	old := Run{ID: "old", Metrics: map[string]float64{"ns": 100, "allocs": 0, "gone": 5, "same": 1}}
	new := Run{ID: "new", Metrics: map[string]float64{"ns": 103, "allocs": 3, "fresh": 1, "same": 1}}
	deltas := Compare(old, new)
	byName := make(map[string]Delta)
	for _, d := range deltas {
		byName[d.Metric] = d
	}
	if d := byName["ns"]; d.Pct < 2.9 || d.Pct > 3.1 {
		t.Errorf("ns pct = %v, want ~3", d.Pct)
	}
	if !byName["ns"].Significant(2.0) || byName["ns"].Significant(5.0) {
		t.Error("ns significance should follow the threshold")
	}
	// 0 → 3 allocs has no percent form but must always be significant.
	if !byName["allocs"].Significant(50.0) {
		t.Error("0 → nonzero must be significant at any threshold")
	}
	if byName["gone"].OnlyIn != "old" || byName["fresh"].OnlyIn != "new" {
		t.Errorf("OnlyIn not tracked: gone=%q fresh=%q", byName["gone"].OnlyIn, byName["fresh"].OnlyIn)
	}
	if !byName["gone"].Significant(99) || !byName["fresh"].Significant(99) {
		t.Error("appeared/vanished metrics must be significant")
	}
	if byName["same"].Significant(0.0001) {
		t.Error("identical values are never significant")
	}

	md := CompareMarkdown("old", "new", deltas, 2.0, true)
	for _, want := range []string{"| ns | 100 | 103 | +3.0% |", "0 → nonzero", "removed", "new", "omitted"} {
		if !strings.Contains(md, want) {
			t.Errorf("compare markdown missing %q:\n%s", want, md)
		}
	}
}

func TestTrendMarkdownAndSparkline(t *testing.T) {
	runs := []Run{
		{ID: "1", Metrics: map[string]float64{"ns": 100, "once": 1}},
		{ID: "2", Metrics: map[string]float64{"ns": 150}},
		{ID: "3", Metrics: map[string]float64{"ns": 200}},
	}
	md := TrendMarkdown(runs, []string{"ns", "once", "absent"}, 16)
	if !strings.Contains(md, "| ns |") || !strings.Contains(md, "+100.0%") {
		t.Errorf("trend table missing the ns row:\n%s", md)
	}
	if strings.Contains(md, "once") {
		t.Errorf("single-sample metric should be skipped:\n%s", md)
	}
	// The sparkline must span the dynamic range: min maps low, max high.
	s := sparkline([]float64{1, 2, 3}, 8)
	if !strings.ContainsRune(s, '▁') || !strings.ContainsRune(s, '█') {
		t.Errorf("sparkline %q does not span min→max glyphs", s)
	}
	if sparkline(nil, 8) != "" {
		t.Error("empty series should render empty")
	}
}

func TestIngestValues(t *testing.T) {
	run := Run{ID: "t"}
	inf := 1.0
	IngestValues(&run, "fig10", map[string]float64{
		"flips/DEUCE": 0.228,
		"bad":         inf / 0, // +Inf must be skipped, not recorded
	})
	if run.Metrics["fidelity:fig10:flips/DEUCE"] != 0.228 {
		t.Errorf("values not namespaced: %v", run.Metrics)
	}
	if _, ok := run.Metrics["fidelity:fig10:bad"]; ok {
		t.Error("non-finite value leaked into the ledger")
	}
}

func TestHistoryAndMetricNames(t *testing.T) {
	runs := []Run{
		{ID: "1", Time: time.Unix(1, 0), Metrics: map[string]float64{"a": 1}},
		{ID: "2", Time: time.Unix(2, 0), Metrics: map[string]float64{"a": 2, "b": 9}},
	}
	vals, idx := History(runs, "a")
	if len(vals) != 2 || vals[1] != 2 || idx[1] != 1 {
		t.Errorf("History = %v, %v", vals, idx)
	}
	names := MetricNames(runs)
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Errorf("MetricNames = %v", names)
	}
}

// TestIngestSpanProfile: a span self-profile lands in the ledger as
// walltime: metrics — the tree extent plus per-name total and self times.
func TestIngestSpanProfile(t *testing.T) {
	doc := `{"wall_ns": 2000000, "spans": 3, "entries": [
		{"name": "fidelity.check", "count": 1, "total_ns": 2000000, "self_ns": 500000, "max_ns": 2000000},
		{"name": "cell/flip", "count": 2, "total_ns": 1500000, "self_ns": 1500000, "max_ns": 900000}]}`
	var run Run
	if err := IngestSpanProfile(&run, strings.NewReader(doc)); err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"walltime:wall:ns":                 2e6,
		"walltime:fidelity.check:total_ns": 2e6,
		"walltime:fidelity.check:self_ns":  5e5,
		"walltime:cell/flip:total_ns":      1.5e6,
		"walltime:cell/flip:self_ns":       1.5e6,
	}
	for name, v := range want {
		if run.Metrics[name] != v {
			t.Errorf("%s = %v, want %v", name, run.Metrics[name], v)
		}
	}
	if len(run.Metrics) != len(want) {
		t.Errorf("ingested %d metrics, want %d: %v", len(run.Metrics), len(want), run.Metrics)
	}
	if !IsWalltime("walltime:gate:ns") || IsWalltime("bench:X:ns_per_op") {
		t.Error("IsWalltime misclassifies the walltime namespace")
	}
}
