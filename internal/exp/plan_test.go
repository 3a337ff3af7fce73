package exp

import (
	"strings"
	"testing"
)

// gatePlanIDs are the paper experiments built from cells, minus fig14,
// whose 40k-writeback wear cells TestPlanEqualsRun covers on its own.
var gatePlanIDs = []string{"fig5", "fig8", "fig9", "fig10", "table3", "fig12", "fig15", "fig16", "fig17", "fig18"}

// TestPlanCoversGateExecutions is the planner's consistency contract: a
// cold gate executes exactly the plan's unique cells — ExecuteCells runs
// them all, and the subsequent table assembly re-runs none.
func TestPlanCoversGateExecutions(t *testing.T) {
	rc := RunConfig{Writebacks: 300, Lines: 64, Seed: 4}
	setWarmReuse(true)
	ResetCache()
	t.Cleanup(ResetCache)
	plan, err := BuildPlan(gatePlanIDs, rc)
	if err != nil {
		t.Fatal(err)
	}
	f0, p0 := RunFlipsCalls(), RunPerfCalls()
	if err := plan.ExecuteCells(nil); err != nil {
		t.Fatal(err)
	}
	executed := (RunFlipsCalls() - f0) + (RunPerfCalls() - p0)
	if want := int64(plan.Stats().Cells); executed != want {
		t.Errorf("ExecuteCells ran %d cells, plan predicted %d", executed, want)
	}
	for _, id := range gatePlanIDs {
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Run(rc); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
	}
	if got := (RunFlipsCalls() - f0) + (RunPerfCalls() - p0); got != executed {
		t.Errorf("table assembly re-ran %d cells the plan missed", got-executed)
	}
}

// raceDetector is set when the tests run under -race (race_test.go).
var raceDetector bool

// TestPlanEqualsRun: for every experiment that declares cells, a Run
// executes exactly its plan's unique cells that the memo does not hold
// yet, and a repeat executes none. Each experiment starts from a cold
// memo except the wear experiments: their cells cost 40k writebacks each
// and largely coincide, so they share one memo, fig14 first. They are
// skipped under -short and under -race, where they take minutes and run
// the same executor paths as the other legs. A wear cell replays its
// trace through RunFlips, so it counts as a flip execution.
func TestPlanEqualsRun(t *testing.T) {
	rc := RunConfig{Writebacks: 300, Lines: 64, Seed: 4}
	setWarmReuse(true)
	ResetCache()
	t.Cleanup(ResetCache)
	executions := func() int64 { return RunFlipsCalls() + RunPerfCalls() }
	var cold, wear []Experiment
	for _, e := range append(append(Experiments(), Ablations()...), Extensions()...) {
		switch {
		case e.cells == nil:
		case e.cells(rc)[0].mode != "wear":
			cold = append(cold, e)
		case !testing.Short() && !raceDetector:
			wear = append(wear, e)
		}
	}
	for i, e := range append(cold, wear...) {
		if i <= len(cold) {
			ResetCache()
		}
		plan, err := BuildPlan([]string{e.ID}, rc)
		if err != nil {
			t.Fatal(err)
		}
		want := int64(0)
		for _, n := range plan.Nodes {
			if n.Kind == "cell" && !memoized(n.Key) {
				want++
			}
		}
		before := executions()
		if _, err := e.Run(rc); err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		if got := executions() - before; got != want {
			t.Errorf("%s: Run executed %d cells, its plan has %d unique ones not yet memoized", e.ID, got, want)
		}
		before = executions()
		if _, err := e.Run(rc); err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		if got := executions() - before; got != 0 {
			t.Errorf("%s: repeated Run executed %d cells, want 0", e.ID, got)
		}
	}
}

// memoized reports whether the shared memo holds key.
func memoized(key string) bool {
	sharedCache.mu.Lock()
	defer sharedCache.mu.Unlock()
	_, ok := sharedCache.entries[key]
	return ok
}

// TestPlanExecuteDropsStreams: once every cell of a recorded stream has
// run, the stream leaves the cache; the
// cached cell results are all the tables need (TestPlanCoversGateExecutions
// checks that the tables re-run nothing).
func TestPlanExecuteDropsStreams(t *testing.T) {
	rc := RunConfig{Writebacks: 300, Lines: 64, Seed: 4}
	setWarmReuse(true)
	ResetCache()
	t.Cleanup(ResetCache)
	plan, err := BuildPlan([]string{"fig10", "fig12", "fig16"}, rc)
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.ExecuteCells(nil); err != nil {
		t.Fatal(err)
	}
	sharedCache.mu.Lock()
	defer sharedCache.mu.Unlock()
	cells := 0
	for k := range sharedCache.entries {
		if strings.HasPrefix(k, "warmStream|") {
			t.Errorf("ExecuteCells left %.60s… cached", k)
		}
		if strings.Contains(k, "Cell|") {
			cells++
		}
	}
	if want := plan.Stats().Cells; cells != want {
		t.Errorf("%d cell results cached, plan has %d cells", cells, want)
	}
}

// TestPlanDeduplicates: fig16 and fig17 are two views of one grid, and
// the flip figures share columns; the plan must collapse them.
func TestPlanDeduplicates(t *testing.T) {
	rc := RunConfig{Writebacks: 300, Lines: 64, Seed: 4}
	plan, err := BuildPlan([]string{"fig16", "fig17"}, rc)
	if err != nil {
		t.Fatal(err)
	}
	st := plan.Stats()
	if st.Cells != 48 {
		t.Errorf("fig16+fig17 should share one 48-cell grid, got %d cells", st.Cells)
	}
	if st.CellRefs != 96 {
		t.Errorf("expected 96 cell refs before dedup, got %d", st.CellRefs)
	}
	if st.Tables != 2 {
		t.Errorf("expected 2 table nodes, got %d", st.Tables)
	}
	// Default DEUCE params appear in fig8 (DEUCE_2B), fig9 (Epoch_32) and
	// fig10 (DEUCE); canonicalization must collapse them per workload.
	plan2, err := BuildPlan([]string{"fig8", "fig9", "fig10"}, rc)
	if err != nil {
		t.Fatal(err)
	}
	st2 := plan2.Stats()
	// Unique columns: DEUCE_{1,2,4,8}B + Epoch_{8,16} + DynDEUCE +
	// DEUCE+FNW + Encr_FNW + NoEncr_FNW = 10 per workload.
	if want := 10 * 12; st2.Cells != want {
		t.Errorf("fig8+fig9+fig10 expected %d unique cells, got %d", want, st2.Cells)
	}
}

// TestPlanFig14Shape: fig14's wear cells share one recorded stream per
// workload, their only prerequisite; its 12x(1+3) cells are all unique.
func TestPlanFig14Shape(t *testing.T) {
	plan, err := BuildPlan([]string{"fig14"}, RunConfig{Writebacks: 100, Lines: 512, Seed: 0})
	if err != nil {
		t.Fatal(err)
	}
	st := plan.Stats()
	if st.Cells != 48 {
		t.Errorf("fig14 expected 48 wear cells, got %d", st.Cells)
	}
	if st.WarmStreams != 12 {
		t.Errorf("wear cells must share one stream per workload, got %d streams", st.WarmStreams)
	}
	if n := st.WarmStreams + st.Cells + st.Tables; n != len(plan.Nodes) {
		t.Errorf("plan has %d nodes, only %d of them streams, cells or tables", len(plan.Nodes), n)
	}
}

// TestPlanRender: the dry-run output names every phase and the sharing
// summary, and leaks no key material.
func TestPlanRender(t *testing.T) {
	plan, err := BuildPlan([]string{"fig16", "fig17"}, RunConfig{Writebacks: 300, Lines: 64, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	plan.Render(&b)
	out := b.String()
	for _, want := range []string{"phase warm-stream", "phase cell", "phase table", "deduplicated"} {
		if !strings.Contains(out, want) {
			t.Errorf("dry-run output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "deuce-asplos2015") {
		t.Error("dry-run output leaks the development AES key")
	}
}

// TestPlanUnknownExperiment: planning an unknown ID must fail loudly.
func TestPlanUnknownExperiment(t *testing.T) {
	if _, err := BuildPlan([]string{"fig99"}, RunConfig{}); err == nil {
		t.Fatal("expected error for unknown experiment")
	}
}

// TestPlanTable2HasNoCells: experiments without a static enumeration
// contribute only their table node.
func TestPlanTable2HasNoCells(t *testing.T) {
	plan, err := BuildPlan([]string{"table2"}, RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	st := plan.Stats()
	if st.Cells != 0 || st.Tables != 1 {
		t.Errorf("table2 expected 0 cells / 1 table, got %d / %d", st.Cells, st.Tables)
	}
}
