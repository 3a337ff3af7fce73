// Package fidelity is the machine-readable contract between this
// repository and the paper: every headline number the DEUCE evaluation
// reports (EXPERIMENTS.md's summary table) is encoded as an Expectation,
// and a checker runs the experiments of internal/exp and verdicts each
// one. What used to be human judgment — "✓ shape + magnitude" — becomes an
// enforced gate: `deucereport check` exits non-zero when a code change
// moves a measured value outside its tolerance or breaks a shape
// assertion (scheme orderings, sweep monotonicity, the 2-byte knee).
// A value that moves inside its tolerance is caught by the committed
// CI-scale recording in testdata/gate: CI re-records it and fails on any
// byte difference, and TestGoldenRecording re-verdicts it and re-measures
// part of it at tier 1.
//
// Tolerances are calibrated so the gate passes at both the default
// experiment scale (30k writebacks / 2048 lines) and the reduced CI scale
// (6k / 512) with margin for seed-to-seed noise, while still catching the
// regressions that matter: a percentage-point-scale shift in a flip
// fraction, a broken ordering, or a lifetime ratio collapsing.
//
// Concurrency: the package is stateless — expectation constructors return
// fresh values and checking only reads the table it is handed — so
// concurrent checks are safe; the experiment executions they trigger
// coordinate through internal/exp's single-flight caches.
package fidelity

import (
	"fmt"
	"strings"

	"deuce/internal/exp"
	"deuce/internal/obs/span"
)

// Kind selects how an expectation is evaluated.
type Kind string

const (
	// Absolute checks |measured - paper| <= Tolerance (same units as
	// the metric, e.g. 0.03 = 3 percentage points on a flip fraction).
	Absolute Kind = "absolute"
	// Ratio checks |measured/paper - 1| <= Tolerance, for quantities
	// that are themselves ratios (lifetimes, speedups).
	Ratio Kind = "ratio"
	// Ordering checks that the measured values of Metrics are strictly
	// decreasing, each consecutive pair separated by at least MinGap.
	Ordering Kind = "ordering"
	// Monotone checks that the measured values of Metrics are strictly
	// increasing, each consecutive pair separated by at least MinGap.
	Monotone Kind = "monotone"
	// Knee checks curvature at the second point of Metrics: the step
	// from Metrics[1] to Metrics[2] must exceed the step from
	// Metrics[0] to Metrics[1] by at least MinGap — the Figure 8
	// "2-byte knee" (cost accelerates beyond the knee granularity).
	Knee Kind = "knee"
)

// Expectation encodes one paper value or shape assertion.
type Expectation struct {
	// Experiment is the exp.Experiment ID providing the values.
	Experiment string
	// Metric names the value ("flips/DEUCE") for Absolute/Ratio kinds.
	Metric string
	// Metrics lists the values, in expected order, for shape kinds.
	Metrics []string
	// Kind selects the evaluation rule.
	Kind Kind
	// Paper is the value the paper reports (unused for shape kinds).
	Paper float64
	// Tolerance is the allowed deviation (absolute units for Absolute,
	// relative fraction for Ratio).
	Tolerance float64
	// MinGap is the minimum separation between consecutive values for
	// shape kinds (0 permits ties for Ordering/Monotone only when
	// explicitly negative — the default 0 still demands the order).
	MinGap float64
	// Note cites where in the paper the value comes from.
	Note string
}

// Name returns a stable human-readable identifier for the expectation.
func (e Expectation) Name() string {
	if len(e.Metrics) > 0 {
		return fmt.Sprintf("%s %s(%s)", e.Experiment, e.Kind, strings.Join(e.Metrics, " "))
	}
	return fmt.Sprintf("%s %s %s", e.Experiment, e.Kind, e.Metric)
}

// Verdict is the evaluated outcome of one expectation.
type Verdict struct {
	Expectation
	// Measured is the observed value (Absolute/Ratio kinds).
	Measured float64
	// Values holds the observed values of Metrics (shape kinds).
	Values []float64
	// Pass reports whether the expectation held.
	Pass bool
	// Detail explains the outcome, including measured vs paper values
	// and the tolerance, phrased for a CI failure message.
	Detail string
}

// Report is the outcome of a full fidelity check.
type Report struct {
	Verdicts []Verdict
	// Missing lists expectations whose experiment produced no value
	// under the expected metric name — itself a failure (a renamed
	// metric must not silently disable its gate).
	Missing []Expectation
}

// Pass reports whether every expectation held and none went missing.
func (r *Report) Pass() bool {
	if len(r.Missing) > 0 {
		return false
	}
	for _, v := range r.Verdicts {
		if !v.Pass {
			return false
		}
	}
	return true
}

// Failures returns the verdicts that did not hold.
func (r *Report) Failures() []Verdict {
	var out []Verdict
	for _, v := range r.Verdicts {
		if !v.Pass {
			out = append(out, v)
		}
	}
	return out
}

// ExperimentIDs returns the distinct experiments the expectations need,
// in first-mention order.
func ExperimentIDs(exps []Expectation) []string {
	var ids []string
	seen := make(map[string]bool)
	for _, e := range exps {
		if !seen[e.Experiment] {
			seen[e.Experiment] = true
			ids = append(ids, e.Experiment)
		}
	}
	return ids
}

// Filter returns the expectations whose experiment is in ids.
func Filter(exps []Expectation, ids []string) []Expectation {
	want := make(map[string]bool, len(ids))
	for _, id := range ids {
		want[id] = true
	}
	var out []Expectation
	for _, e := range exps {
		if want[e.Experiment] {
			out = append(out, e)
		}
	}
	return out
}

// Evaluate verdicts the expectations against pre-collected experiment
// values: values[experimentID][metric] = measured. It performs no
// experiment runs, so it is directly unit-testable and reusable against
// recorded results.
func Evaluate(values map[string]map[string]float64, exps []Expectation) *Report {
	r := &Report{}
	for _, e := range exps {
		ev := values[e.Experiment]
		switch e.Kind {
		case Absolute, Ratio:
			m, ok := ev[e.Metric]
			if !ok {
				r.Missing = append(r.Missing, e)
				continue
			}
			v := Verdict{Expectation: e, Measured: m}
			switch e.Kind {
			case Absolute:
				diff := m - e.Paper
				v.Pass = abs(diff) <= e.Tolerance
				v.Detail = fmt.Sprintf("%s %s: measured %.4g vs paper %.4g (diff %+.4g, tolerance ±%.4g)",
					e.Experiment, e.Metric, m, e.Paper, diff, e.Tolerance)
			case Ratio:
				rel := m/e.Paper - 1
				v.Pass = abs(rel) <= e.Tolerance
				v.Detail = fmt.Sprintf("%s %s: measured %.4g vs paper %.4g (%+.1f%%, tolerance ±%.0f%%)",
					e.Experiment, e.Metric, m, e.Paper, rel*100, e.Tolerance*100)
			}
			r.Verdicts = append(r.Verdicts, v)
		case Ordering, Monotone, Knee:
			vals := make([]float64, 0, len(e.Metrics))
			missing := false
			for _, name := range e.Metrics {
				m, ok := ev[name]
				if !ok {
					missing = true
					break
				}
				vals = append(vals, m)
			}
			if missing {
				r.Missing = append(r.Missing, e)
				continue
			}
			v := Verdict{Expectation: e, Values: vals, Pass: true}
			switch e.Kind {
			case Ordering:
				for i := 1; i < len(vals); i++ {
					if vals[i-1]-vals[i] < e.MinGap {
						v.Pass = false
						v.Detail = fmt.Sprintf("%s ordering violated: %s=%.4g not > %s=%.4g by %.4g",
							e.Experiment, e.Metrics[i-1], vals[i-1], e.Metrics[i], vals[i], e.MinGap)
						break
					}
				}
				if v.Pass {
					v.Detail = fmt.Sprintf("%s ordering holds: %s", e.Experiment, seq(e.Metrics, vals, " > "))
				}
			case Monotone:
				for i := 1; i < len(vals); i++ {
					if vals[i]-vals[i-1] < e.MinGap {
						v.Pass = false
						v.Detail = fmt.Sprintf("%s monotonicity violated: %s=%.4g not > %s=%.4g by %.4g",
							e.Experiment, e.Metrics[i], vals[i], e.Metrics[i-1], vals[i-1], e.MinGap)
						break
					}
				}
				if v.Pass {
					v.Detail = fmt.Sprintf("%s monotone holds: %s", e.Experiment, seq(e.Metrics, vals, " < "))
				}
			case Knee:
				if len(vals) < 3 {
					v.Pass = false
					v.Detail = fmt.Sprintf("%s knee check needs >= 3 metrics, got %d", e.Experiment, len(vals))
					break
				}
				before, after := vals[1]-vals[0], vals[2]-vals[1]
				v.Pass = after-before >= e.MinGap
				v.Detail = fmt.Sprintf("%s knee at %s: step after %.4g vs step before %.4g (need >= %.4g steeper)",
					e.Experiment, e.Metrics[1], after, before, e.MinGap)
			}
			r.Verdicts = append(r.Verdicts, v)
		default:
			r.Missing = append(r.Missing, e)
		}
	}
	return r
}

// EvaluateTables verdicts the expectations against recorded experiment
// tables (exp.LoadTables' shape) with zero experiment runs. A nil or
// empty expectation slice checks the full table. Experiments the
// expectations reference but the recording lacks surface as Missing
// entries in the report — an incomplete recording must not silently
// narrow the gate.
func EvaluateTables(tables map[string]*exp.Table, exps []Expectation) *Report {
	if len(exps) == 0 {
		exps = Expectations()
	}
	values := make(map[string]map[string]float64, len(tables))
	for id, t := range tables {
		values[id] = t.Values
	}
	return Evaluate(values, exps)
}

// Check runs every experiment the expectations reference (each once,
// sharing results across its expectations) and evaluates them. A nil or
// empty expectation slice checks the full table.
//
// The experiments run as one plan: BuildPlan deduplicates their cells
// across experiments and ExecuteCells fans the unique ones out on the
// work-stealing pool, so each experiment's table is then pure assembly
// from the cell memo.
func Check(rc exp.RunConfig, exps []Expectation) (*Report, map[string]*exp.Table, error) {
	if len(exps) == 0 {
		exps = Expectations()
	}
	root := rc.Spans.Start(rc.SpanParent, "fidelity.check",
		span.Int("expectations", int64(len(exps))))
	defer root.End()
	rc.SpanParent = root // everything below — plan, tables, evaluation — nests here
	ids := ExperimentIDs(exps)
	plan, err := exp.BuildPlan(ids, rc)
	if err != nil {
		return nil, nil, err
	}
	if err := plan.ExecuteCells(rc.Progress); err != nil {
		return nil, nil, err
	}
	tables := make(map[string]*exp.Table, len(ids))
	values := make(map[string]map[string]float64, len(ids))
	for _, id := range ids {
		e, err := exp.ByID(id)
		if err != nil {
			return nil, nil, err
		}
		t, err := e.Run(rc)
		if err != nil {
			return nil, nil, fmt.Errorf("fidelity: %s: %w", id, err)
		}
		tables[id] = t
		values[id] = t.Values
	}
	return evaluateSpanned(rc, values, exps), tables, nil
}

// evaluateSpanned is Evaluate wrapped in spans: one "evaluate" phase span
// plus one "expectation" child per expectation, so a traced gate shows
// per-expectation time. Evaluate appends verdicts strictly in expectation
// order, so evaluating one at a time and concatenating is equivalent to
// one batched call; with no tracer attached the batched call is used.
func evaluateSpanned(rc exp.RunConfig, values map[string]map[string]float64, exps []Expectation) *Report {
	if rc.Spans == nil {
		return Evaluate(values, exps)
	}
	eval := rc.Spans.Start(rc.SpanParent, "evaluate", span.Int("expectations", int64(len(exps))))
	defer eval.End()
	report := &Report{}
	for _, e := range exps {
		esp := rc.Spans.Start(eval, "expectation", span.Str("name", e.Name()))
		one := Evaluate(values, []Expectation{e})
		if len(one.Verdicts) > 0 {
			esp.Annotate(span.Str("pass", fmt.Sprintf("%t", one.Verdicts[0].Pass)))
		}
		report.Verdicts = append(report.Verdicts, one.Verdicts...)
		report.Missing = append(report.Missing, one.Missing...)
		esp.End()
	}
	return report
}

// Markdown renders the report as a fidelity matrix: one row per
// expectation with paper value, measured value, tolerance and verdict.
func (r *Report) Markdown() string {
	var b strings.Builder
	b.WriteString("| Experiment | Check | Paper | Measured | Tolerance | Verdict |\n")
	b.WriteString("|---|---|---|---|---|---|\n")
	for _, v := range r.Verdicts {
		verdict := "✓ pass"
		if !v.Pass {
			verdict = "✗ FAIL"
		}
		switch v.Kind {
		case Absolute, Ratio:
			tol := fmt.Sprintf("±%.4g", v.Tolerance)
			if v.Kind == Ratio {
				tol = fmt.Sprintf("±%.0f%%", v.Tolerance*100)
			}
			fmt.Fprintf(&b, "| %s | %s | %.4g | %.4g | %s | %s |\n",
				v.Experiment, v.Metric, v.Paper, v.Measured, tol, verdict)
		default:
			fmt.Fprintf(&b, "| %s | %s %s | — | %s | gap %.4g | %s |\n",
				v.Experiment, v.Kind, strings.Join(v.Metrics, " → "),
				seqVals(v.Values), v.MinGap, verdict)
		}
	}
	if len(r.Missing) > 0 {
		b.WriteString("\nMissing metrics (experiment no longer exports the value — the gate treats this as failure):\n")
		for _, e := range r.Missing {
			fmt.Fprintf(&b, "- %s\n", e.Name())
		}
	}
	return b.String()
}

// Summary returns a one-line outcome, e.g. "fidelity: 34/36 checks pass".
func (r *Report) Summary() string {
	pass := 0
	for _, v := range r.Verdicts {
		if v.Pass {
			pass++
		}
	}
	s := fmt.Sprintf("fidelity: %d/%d checks pass", pass, len(r.Verdicts))
	if len(r.Missing) > 0 {
		s += fmt.Sprintf(", %d missing metrics", len(r.Missing))
	}
	return s
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func seq(names []string, vals []float64, sep string) string {
	parts := make([]string, len(names))
	for i := range names {
		parts[i] = fmt.Sprintf("%s=%.4g", names[i], vals[i])
	}
	return strings.Join(parts, sep)
}

func seqVals(vals []float64) string {
	parts := make([]string, len(vals))
	for i, v := range vals {
		parts[i] = fmt.Sprintf("%.4g", v)
	}
	return strings.Join(parts, " → ")
}
