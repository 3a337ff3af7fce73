package exp

import (
	"strings"
	"testing"

	"deuce/internal/obs/span"
)

// tracedMiniGate runs a small planned gate (plan pre-pass + table
// assembly) under a fresh tracer and returns the assembled span tree.
// fig16 exercises every span kind at once: warm streams/schemes, perf
// cells and their timing-model runs, the perf grid, cache hits during
// table assembly, and the table span itself.
func tracedMiniGate(t *testing.T) *span.Tree {
	t.Helper()
	setWarmReuse(true)
	ResetCache()
	ResetReuse()
	tr := span.New()
	rc := RunConfig{Writebacks: 300, Lines: 64, Seed: 4, Spans: tr}
	plan, err := BuildPlan([]string{"fig16"}, rc)
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.ExecuteCells(nil); err != nil {
		t.Fatal(err)
	}
	e, err := ByID("fig16")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.RunTable(rc); err != nil {
		t.Fatal(err)
	}
	return tr.Snapshot()
}

// TestPlanSpanStructureDeterminism pins the tracer's core contract at
// gate scope: two identical runs produce identical span structure even
// though the cell pool schedules work differently each time. Run under -race via the Makefile's race-timing target.
func TestPlanSpanStructureDeterminism(t *testing.T) {
	first := tracedMiniGate(t)
	second := tracedMiniGate(t)
	t.Cleanup(ResetCache)
	if first.Spans == 0 {
		t.Fatal("traced gate produced no spans")
	}
	if first.Dropped != 0 {
		t.Errorf("%d spans had an unfinished parent", first.Dropped)
	}
	a, b := first.Structure(), second.Structure()
	if a != b {
		t.Errorf("span structure is schedule-dependent:\nrun1:\n%s\nrun2:\n%s", a, b)
	}
	for _, want := range []string{"plan.build", "plan.execute", "cell/perf",
		"warm-stream", "warm-scheme", "warmup", "timing.run", "grid/perf", "table/fig16", "cache-hit"} {
		if !strings.Contains(a, want) {
			t.Errorf("traced gate structure is missing %q spans", want)
		}
	}
}

// TestPlanSpanDAGCriticalPath closes the loop between the plan DAG and
// the measured tree: every executed cell node recovers a positive
// duration through its "key" attribute, and the DAG critical path is a
// non-empty chain bounded by the measured wall clock.
func TestPlanSpanDAGCriticalPath(t *testing.T) {
	setWarmReuse(true)
	ResetCache()
	ResetReuse()
	t.Cleanup(ResetCache)
	tr := span.New()
	rc := RunConfig{Writebacks: 300, Lines: 64, Seed: 4, Spans: tr}
	plan, err := BuildPlan([]string{"fig16"}, rc)
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.ExecuteCells(nil); err != nil {
		t.Fatal(err)
	}
	tree := tr.Snapshot()
	nodes := plan.SpanDAG(tree.MaxDurByAttr("key"))
	if len(nodes) != len(plan.Nodes) {
		t.Fatalf("SpanDAG returned %d nodes for a %d-node plan", len(nodes), len(plan.Nodes))
	}
	for i, n := range plan.Nodes {
		if n.Kind == "table" {
			continue // tables were not run; they carry no measurement
		}
		if nodes[i].DurNs <= 0 {
			t.Errorf("plan node %q (%s) recovered no duration from the span tree", n.Label, n.Kind)
		}
	}
	chain, total := span.CriticalPathDAG(nodes)
	if len(chain) == 0 || total <= 0 {
		t.Fatalf("degenerate critical path: %d nodes, %s", len(chain), span.FormatNs(total))
	}
	// The chain is a wall-clock lower bound; the tree's extent is an upper
	// bound on any chain through it.
	if wall := tree.WallNs(); total > wall {
		t.Errorf("critical path %s exceeds measured wall clock %s",
			span.FormatNs(total), span.FormatNs(wall))
	}
}
