package fidelity

import (
	"strings"
	"testing"

	"deuce/internal/exp"
)

// vals builds the values map Evaluate consumes.
func vals(id string, m map[string]float64) map[string]map[string]float64 {
	return map[string]map[string]float64{id: m}
}

func one(t *testing.T, r *Report) Verdict {
	t.Helper()
	if len(r.Missing) > 0 {
		t.Fatalf("unexpected missing expectations: %v", r.Missing)
	}
	if len(r.Verdicts) != 1 {
		t.Fatalf("got %d verdicts, want 1", len(r.Verdicts))
	}
	return r.Verdicts[0]
}

func TestEvaluateAbsolute(t *testing.T) {
	e := Expectation{Experiment: "figX", Metric: "flips/DEUCE", Kind: Absolute, Paper: 0.228, Tolerance: 0.03}
	for _, tc := range []struct {
		measured float64
		pass     bool
	}{
		{0.228, true},
		{0.258, true},  // exactly at tolerance
		{0.198, true},  // exactly at tolerance, low side
		{0.259, false}, // just beyond
		{0.10, false},
	} {
		v := one(t, Evaluate(vals("figX", map[string]float64{"flips/DEUCE": tc.measured}), []Expectation{e}))
		if v.Pass != tc.pass {
			t.Errorf("absolute measured=%v: pass=%v, want %v (%s)", tc.measured, v.Pass, tc.pass, v.Detail)
		}
		if v.Measured != tc.measured {
			t.Errorf("verdict measured=%v, want %v", v.Measured, tc.measured)
		}
	}
}

func TestEvaluateRatio(t *testing.T) {
	e := Expectation{Experiment: "fig16", Metric: "speedup/DEUCE", Kind: Ratio, Paper: 1.27, Tolerance: 0.10}
	if v := one(t, Evaluate(vals("fig16", map[string]float64{"speedup/DEUCE": 1.32}), []Expectation{e})); !v.Pass {
		t.Errorf("ratio within 10%% should pass: %s", v.Detail)
	}
	if v := one(t, Evaluate(vals("fig16", map[string]float64{"speedup/DEUCE": 1.45}), []Expectation{e})); v.Pass {
		t.Errorf("ratio 14%% off should fail: %s", v.Detail)
	}
}

func TestEvaluateOrdering(t *testing.T) {
	e := Expectation{
		Experiment: "fig10", Kind: Ordering, MinGap: 0.005,
		Metrics: []string{"flips/Encr_FNW", "flips/DEUCE", "flips/NoEncr_FNW"},
	}
	good := map[string]float64{"flips/Encr_FNW": 0.427, "flips/DEUCE": 0.228, "flips/NoEncr_FNW": 0.097}
	if v := one(t, Evaluate(vals("fig10", good), []Expectation{e})); !v.Pass {
		t.Errorf("correct ordering should pass: %s", v.Detail)
	}
	// Swap two values: the gate must name the violated pair.
	bad := map[string]float64{"flips/Encr_FNW": 0.427, "flips/DEUCE": 0.097, "flips/NoEncr_FNW": 0.228}
	v := one(t, Evaluate(vals("fig10", bad), []Expectation{e}))
	if v.Pass {
		t.Fatalf("broken ordering should fail")
	}
	if !strings.Contains(v.Detail, "flips/DEUCE") || !strings.Contains(v.Detail, "flips/NoEncr_FNW") {
		t.Errorf("failure detail does not name the violated pair: %s", v.Detail)
	}
	// Ties below MinGap fail too (the paper's separations are real).
	tied := map[string]float64{"flips/Encr_FNW": 0.427, "flips/DEUCE": 0.228, "flips/NoEncr_FNW": 0.2279}
	if v := one(t, Evaluate(vals("fig10", tied), []Expectation{e})); v.Pass {
		t.Errorf("gap below MinGap should fail: %s", v.Detail)
	}
}

func TestEvaluateMonotone(t *testing.T) {
	e := Expectation{
		Experiment: "fig8", Kind: Monotone, MinGap: 0.002,
		Metrics: []string{"flips/1B", "flips/2B", "flips/4B"},
	}
	if v := one(t, Evaluate(vals("fig8", map[string]float64{"flips/1B": 0.218, "flips/2B": 0.228, "flips/4B": 0.270}), []Expectation{e})); !v.Pass {
		t.Errorf("increasing sweep should pass: %s", v.Detail)
	}
	if v := one(t, Evaluate(vals("fig8", map[string]float64{"flips/1B": 0.218, "flips/2B": 0.216, "flips/4B": 0.270}), []Expectation{e})); v.Pass {
		t.Errorf("dip should fail monotonicity: %s", v.Detail)
	}
}

func TestEvaluateKnee(t *testing.T) {
	e := Expectation{
		Experiment: "fig8", Kind: Knee, MinGap: 0.005,
		Metrics: []string{"flips/1B", "flips/2B", "flips/4B"},
	}
	// Step before knee 0.010, after 0.042: curvature present.
	if v := one(t, Evaluate(vals("fig8", map[string]float64{"flips/1B": 0.218, "flips/2B": 0.228, "flips/4B": 0.270}), []Expectation{e})); !v.Pass {
		t.Errorf("knee should pass: %s", v.Detail)
	}
	// Linear growth: no knee.
	if v := one(t, Evaluate(vals("fig8", map[string]float64{"flips/1B": 0.218, "flips/2B": 0.228, "flips/4B": 0.238}), []Expectation{e})); v.Pass {
		t.Errorf("linear sweep should fail the knee check: %s", v.Detail)
	}
}

func TestEvaluateMissingMetricFails(t *testing.T) {
	exps := []Expectation{
		{Experiment: "figX", Metric: "flips/Gone", Kind: Absolute, Paper: 0.2, Tolerance: 0.1},
		{Experiment: "figX", Kind: Ordering, Metrics: []string{"flips/A", "flips/Gone"}},
	}
	r := Evaluate(vals("figX", map[string]float64{"flips/A": 0.5}), exps)
	if len(r.Missing) != 2 {
		t.Fatalf("got %d missing, want 2 (a renamed metric must not silently disable its gate)", len(r.Missing))
	}
	if r.Pass() {
		t.Errorf("report with missing metrics must not pass")
	}
	if md := r.Markdown(); !strings.Contains(md, "Missing metrics") {
		t.Errorf("markdown does not surface missing metrics:\n%s", md)
	}
}

func TestReportMarkdownAndSummary(t *testing.T) {
	exps := []Expectation{
		{Experiment: "figX", Metric: "flips/A", Kind: Absolute, Paper: 0.2, Tolerance: 0.01},
		{Experiment: "figX", Metric: "speed/B", Kind: Ratio, Paper: 1.5, Tolerance: 0.1},
	}
	r := Evaluate(vals("figX", map[string]float64{"flips/A": 0.5, "speed/B": 1.5}), exps)
	md := r.Markdown()
	for _, want := range []string{"| figX |", "flips/A", "✗ FAIL", "✓ pass", "±0.01", "±10%"} {
		if !strings.Contains(md, want) {
			t.Errorf("markdown missing %q:\n%s", want, md)
		}
	}
	if s := r.Summary(); s != "fidelity: 1/2 checks pass" {
		t.Errorf("summary = %q", s)
	}
	if got := len(r.Failures()); got != 1 {
		t.Errorf("Failures() = %d, want 1", got)
	}
}

// TestExpectationsWellFormed guards the expectations table itself: every
// referenced experiment must exist, kinds must be valid, and shape kinds
// must carry enough metrics.
func TestExpectationsWellFormed(t *testing.T) {
	for _, e := range Expectations() {
		if _, err := exp.ByID(e.Experiment); err != nil {
			t.Errorf("%s: unknown experiment: %v", e.Name(), err)
		}
		switch e.Kind {
		case Absolute, Ratio:
			if e.Metric == "" {
				t.Errorf("%s: value kind without Metric", e.Name())
			}
			if e.Paper <= 0 {
				t.Errorf("%s: paper value %v not positive", e.Name(), e.Paper)
			}
			if e.Kind == Absolute && e.Tolerance < 0 {
				t.Errorf("%s: negative tolerance", e.Name())
			}
			if e.Kind == Ratio && e.Tolerance <= 0 {
				t.Errorf("%s: ratio kind needs a positive tolerance", e.Name())
			}
		case Ordering, Monotone:
			if len(e.Metrics) < 2 {
				t.Errorf("%s: shape kind with %d metrics", e.Name(), len(e.Metrics))
			}
		case Knee:
			if len(e.Metrics) != 3 {
				t.Errorf("%s: knee needs exactly 3 metrics, has %d", e.Name(), len(e.Metrics))
			}
		default:
			t.Errorf("%s: unknown kind %q", e.Name(), e.Kind)
		}
	}
}

func TestFilterAndExperimentIDs(t *testing.T) {
	all := Expectations()
	ids := ExperimentIDs(all)
	if len(ids) < 8 {
		t.Fatalf("expectations cover %d experiments, want the full summary table (>= 8)", len(ids))
	}
	sub := Filter(all, []string{"fig10"})
	if len(sub) == 0 {
		t.Fatal("Filter(fig10) returned nothing")
	}
	for _, e := range sub {
		if e.Experiment != "fig10" {
			t.Errorf("Filter leaked %s", e.Name())
		}
	}
}

// TestCheckSmall runs the real gate end-to-end on the cheapest experiment
// at a tiny scale: the wiring (BuildPlan → ExecuteCells → Run → Values →
// Evaluate) must produce a verdict for every fig5 expectation. Tolerances
// are calibrated for the default and CI scales, not this tiny one, so only
// structure is asserted, not Pass.
func TestCheckSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real experiment")
	}
	exps := Filter(Expectations(), []string{"fig5"})
	rc := exp.RunConfig{Writebacks: 2000, Lines: 256, Seed: 1}
	r, tables, err := Check(rc, exps)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Missing) > 0 {
		t.Errorf("fig5 no longer exports expected metrics: %v", r.Missing)
	}
	if len(r.Verdicts) != len(exps) {
		t.Errorf("got %d verdicts for %d expectations", len(r.Verdicts), len(exps))
	}
	if tables["fig5"] == nil || len(tables["fig5"].Values) == 0 {
		t.Errorf("Check did not return the fig5 table values")
	}
}
