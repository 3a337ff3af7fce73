package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"deuce/internal/obs/span"
)

// TestWriteSpanArtifacts drives the check -spans artifact writer over a
// hand-built tree and pins the acceptance contract: a loadable Chrome
// trace, a self-profile that decodes to the tree's wall clock and per-name
// totals, and a critical-path table whose coverage line accounts for the
// gate wall clock.
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

	sp, err := os.ReadFile(filepath.Join(dir, "self-profile.json"))
	if err != nil {
		t.Fatal(err)
	}
	var prof span.Profile
	if err := json.Unmarshal(sp, &prof); err != nil {
		t.Fatalf("self-profile is not valid JSON: %v", err)
	}
	if prof.WallNs != 100e6 {
		t.Errorf("self-profile wall_ns = %v, want 1e8", prof.WallNs)
	}
	if got := prof.Lookup("cell/flip").TotalNs; got != 40e6 {
		t.Errorf("self-profile cell/flip total_ns = %v, want 4e7", got)
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
