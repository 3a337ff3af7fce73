package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"deuce/internal/obs/span"
	"deuce/internal/regress"
)

// gateLedger writes a three-run ledger: two stable baseline runs and a
// head run with one drifted metric plus one brand-new metric.
func gateLedger(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "ledger.jsonl")
	base := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	runs := []regress.Run{
		{ID: "r1", Time: base, Metrics: map[string]float64{"bench:X:ns_per_op": 100}},
		{ID: "r2", Time: base.Add(time.Hour), Metrics: map[string]float64{"bench:X:ns_per_op": 101}},
		{ID: "head", Time: base.Add(2 * time.Hour), Metrics: map[string]float64{
			"bench:X:ns_per_op":   150, // +49% vs the median baseline
			"bench:New:ns_per_op": 5,   // introduced by "head": must not gate
		}},
	}
	for _, r := range runs {
		if err := regress.Append(path, r); err != nil {
			t.Fatal(err)
		}
	}
	return path
}

func TestCompareGateFailsOnDrift(t *testing.T) {
	ledger := gateLedger(t)
	err := cmdCompare([]string{"-ledger", ledger, "-baseline", "2", "-gate", "head"})
	if err == nil {
		t.Fatal("gate passed a 49% drift")
	}
	if !strings.Contains(err.Error(), "drifted") {
		t.Errorf("gate error %q does not name the drift", err)
	}
}

func TestCompareGatePassesStableRun(t *testing.T) {
	ledger := gateLedger(t)
	if err := cmdCompare([]string{"-ledger", ledger, "-baseline", "1", "-gate", "r2"}); err != nil {
		t.Errorf("gate failed a 1%% change under the default 2%% threshold: %v", err)
	}
}

func TestCompareGatePassesEmptyBaseline(t *testing.T) {
	ledger := gateLedger(t)
	// r1 is the oldest run: no priors exist, and a fresh ledger must not
	// fail CI by construction.
	if err := cmdCompare([]string{"-ledger", ledger, "-baseline", "5", "-gate", "r1"}); err != nil {
		t.Errorf("gate failed with an empty baseline: %v", err)
	}
}

func TestCompareGateDriftReportArtifact(t *testing.T) {
	ledger := gateLedger(t)
	out := filepath.Join(t.TempDir(), "drift.md")
	err := cmdCompare([]string{"-ledger", ledger, "-baseline", "2", "-gate", "-out", out, "head"})
	if err == nil {
		t.Fatal("gate passed a 49% drift")
	}
	md, rerr := os.ReadFile(out)
	if rerr != nil {
		t.Fatalf("drift report not written: %v", rerr)
	}
	if !strings.Contains(string(md), "bench:X:ns_per_op") {
		t.Errorf("drift report %q omits the drifted metric", md)
	}
}

func TestCompareWithoutGateStillExitsZeroOnDrift(t *testing.T) {
	ledger := gateLedger(t)
	if err := cmdCompare([]string{"-ledger", ledger, "-baseline", "2", "head"}); err != nil {
		t.Errorf("plain compare must stay informational, got %v", err)
	}
}

// walltimeLedger writes a ledger whose simulated values are stable but
// whose gate wall clock drifts +50% at head.
func walltimeLedger(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "ledger.jsonl")
	base := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	runs := []regress.Run{
		{ID: "r1", Time: base, Metrics: map[string]float64{
			"bench:X:ns_per_op": 100, "walltime:gate:ns": 10e9}},
		{ID: "r2", Time: base.Add(time.Hour), Metrics: map[string]float64{
			"bench:X:ns_per_op": 100, "walltime:gate:ns": 10.1e9}},
		{ID: "head", Time: base.Add(2 * time.Hour), Metrics: map[string]float64{
			"bench:X:ns_per_op": 100, "walltime:gate:ns": 15e9}},
	}
	for _, r := range runs {
		if err := regress.Append(path, r); err != nil {
			t.Fatal(err)
		}
	}
	return path
}

// TestCompareGateIgnoresWalltimeByDefault: wall clock is noisy, so a
// walltime drift must not fail the value gate unless explicitly opted in.
func TestCompareGateIgnoresWalltimeByDefault(t *testing.T) {
	ledger := walltimeLedger(t)
	if err := cmdCompare([]string{"-ledger", ledger, "-baseline", "2", "-gate", "head"}); err != nil {
		t.Errorf("value gate failed on a walltime-only drift: %v", err)
	}
}

func TestCompareGateFailsOnWalltimeDrift(t *testing.T) {
	ledger := walltimeLedger(t)
	err := cmdCompare([]string{"-ledger", ledger, "-baseline", "2", "-gate",
		"-walltime-threshold", "25", "head"})
	if err == nil {
		t.Fatal("walltime gate passed a 48% wall-clock drift")
	}
	if !strings.Contains(err.Error(), "drifted") {
		t.Errorf("gate error %q does not name the drift", err)
	}
}

// TestCompareWalltimeThresholdTolerance: the walltime threshold is its
// own dial — a drift inside it passes even when far beyond the value
// threshold.
func TestCompareWalltimeThresholdTolerance(t *testing.T) {
	ledger := walltimeLedger(t)
	if err := cmdCompare([]string{"-ledger", ledger, "-baseline", "2", "-gate",
		"-walltime-threshold", "60", "head"}); err != nil {
		t.Errorf("walltime gate failed inside its own threshold: %v", err)
	}
}

// TestWriteSpanArtifacts drives the check -spans artifact writer over a
// hand-built tree and pins the acceptance contract: a loadable Chrome
// trace, a self-profile the ledger can ingest as walltime metrics, and a
// critical-path table whose coverage line accounts for the gate wall
// clock.
func TestWriteSpanArtifacts(t *testing.T) {
	tr := span.New()
	epoch := time.Now()
	root := tr.StartAt(nil, "fidelity.check", epoch)
	tr.Record(root, "cell/flip", epoch, 40*time.Millisecond, span.Str("workload", "mcf"))
	tr.Record(root, "evaluate", epoch.Add(60*time.Millisecond), 35*time.Millisecond)
	root.EndAt(100 * time.Millisecond)
	tree := tr.Snapshot()

	dir := t.TempDir()
	if err := writeSpanArtifacts(dir, tree, 100*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	ct, err := os.ReadFile(filepath.Join(dir, "chrome-trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]interface{}
	if err := json.Unmarshal(ct, &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	if evs, ok := doc["traceEvents"].([]interface{}); !ok || len(evs) != 3 {
		t.Errorf("chrome trace should hold 3 events, got %v", doc["traceEvents"])
	}

	pf, err := os.Open(filepath.Join(dir, "self-profile.json"))
	if err != nil {
		t.Fatal(err)
	}
	defer pf.Close()
	var run regress.Run
	run.ID = "t"
	if err := regress.IngestSpanProfile(&run, pf); err != nil {
		t.Fatal(err)
	}
	if run.Metrics["walltime:wall:ns"] != 100e6 {
		t.Errorf("walltime:wall:ns = %v, want 1e8", run.Metrics["walltime:wall:ns"])
	}
	if run.Metrics["walltime:cell/flip:total_ns"] != 40e6 {
		t.Errorf("walltime:cell/flip:total_ns = %v, want 4e7", run.Metrics["walltime:cell/flip:total_ns"])
	}

	md, err := os.ReadFile(filepath.Join(dir, "critical-path.md"))
	if err != nil {
		t.Fatal(err)
	}
	// The tree covers the full 100ms gate, so the coverage line must report
	// 100% (the within-5% acceptance bound) and the chain must descend into
	// the evaluate span, which ends last.
	for _, want := range []string{"(100.0% of the gate)", "## Critical path", "| evaluate |", "fidelity.check"} {
		if !strings.Contains(string(md), want) {
			t.Errorf("critical-path.md missing %q:\n%s", want, md)
		}
	}
}
