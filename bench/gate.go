package main

import (
	"fmt"
	"strings"
	"time"

	"deuce/internal/exp"
	"deuce/internal/fidelity"
	"deuce/internal/obs/span"
)

// runGate is gate: the paper-fidelity gate (fidelity.Check over every
// expectation, extension drills included) at CI scale, cold. One op is
// one experiment cell (a flip, perf or wear cell of the plan), so
// ops_per_s is cells per second of gate wall clock and the op latencies
// are cell durations; each gate is one segment. Cell durations come from
// the span tracer the repository's own gate attaches (`deucereport check
// -spans`), so the untraced pass carries it too; the traced pass measures
// what it costs.
//
// Set-up is the planner pass the gate starts from (exp.BuildPlan). Every
// gate starts from empty experiment caches, and its RunPerf/RunFlips
// executions must equal the plan's unique cells — proof that nothing was
// served from a memo cache.
func runGate(r *run) error {
	exps := append(fidelity.Expectations(), fidelity.ExtensionExpectations()...)
	if r.sc.gateExperiments != nil {
		exps = fidelity.Filter(exps, r.sc.gateExperiments)
	}
	rc := exp.RunConfig{Writebacks: r.sc.gateWritebacks, Lines: r.sc.gateLines, Seed: r.seed}
	ids := fidelity.ExperimentIDs(exps)
	var plan *exp.Plan
	for i := 0; i < r.sc.setups; i++ {
		start := time.Now()
		p, err := exp.BuildPlan(ids, rc)
		if err != nil {
			return err
		}
		r.add("setup_s", time.Since(start).Seconds())
		plan = p
	}
	want := planCells(plan)
	if r.trace {
		return tracedGate(r, rc, exps, plan, want)
	}

	deadline := time.Now().Add(r.seconds)
	for {
		g, err := gateOnce(r, rc, exps, want, span.New())
		if err != nil {
			return err
		}
		cells := cellDurations(g.tree)
		r.add("ops_per_s", float64(len(cells))/g.wall.Seconds())
		r.add("op_p50_us", us(percentile(cells, 0.50)))
		r.add("op_p99_us", us(percentile(cells, 0.99)))
		if r.segments == 0 {
			flips, ok1 := tableValue(g.tables, "fig10", "flips/DEUCE")
			slots, ok2 := tableValue(g.tables, "fig15", "slots/DEUCE")
			if !ok1 || !ok2 {
				return fmt.Errorf("gate: fig10 flips/DEUCE and fig15 slots/DEUCE are needed for flips_per_write and slots_per_write")
			}
			r.add("flips_per_write", flips*8*lineBytes)
			r.add("slots_per_write", slots)
		}
		r.segments++
		if time.Now().Add(g.wall).After(deadline) {
			break
		}
	}
	r.add("max_rss_mb", maxRSSMiB())
	return nil
}

func tableValue(tables map[string]*exp.Table, id, metric string) (float64, bool) {
	t := tables[id]
	if t == nil {
		return 0, false
	}
	v, ok := t.Values[metric]
	return v, ok
}

// gateCells counts a plan's unique cells by kind: the executions a cold
// gate must perform.
type gateCells struct{ flip, perf, wear int64 }

func planCells(p *exp.Plan) gateCells {
	var c gateCells
	for _, n := range p.Nodes {
		if n.Kind != "cell" {
			continue
		}
		switch {
		case strings.HasPrefix(n.Label, "perf "):
			c.perf++
		case strings.HasPrefix(n.Label, "wear "):
			c.wear++
		default:
			c.flip++
		}
	}
	return c
}

// gateRun is one cold gate.
type gateRun struct {
	wall      time.Duration
	tree      *span.Tree // nil when run without a tracer
	tables    map[string]*exp.Table
	perfCalls int64
	flipCalls int64
	reuse     exp.ReuseStats
}

// gateOnce empties the experiment caches, runs the gate, and checks every
// verdict and the freshness guard. A wear cell replays its trace through
// RunFlips, so wear cells count as flip executions.
func gateOnce(r *run, rc exp.RunConfig, exps []fidelity.Expectation, want gateCells, tracer *span.Tracer) (gateRun, error) {
	exp.ResetCache()
	exp.ResetReuse()
	perf0, flips0 := exp.RunPerfCalls(), exp.RunFlipsCalls()
	rc.Spans = tracer
	start := time.Now()
	report, tables, err := fidelity.Check(rc, exps)
	wall := time.Since(start)
	if err != nil {
		return gateRun{}, err
	}
	for _, v := range report.Verdicts {
		r.check(v.Pass, "%s", v.Detail)
	}
	for _, e := range report.Missing {
		r.check(false, "%s: the experiment exported no value under this metric name", e.Name())
	}
	g := gateRun{
		wall:      wall,
		tables:    tables,
		perfCalls: exp.RunPerfCalls() - perf0,
		flipCalls: exp.RunFlipsCalls() - flips0,
		reuse:     exp.Reuse(),
	}
	r.check(g.perfCalls == want.perf, "gate executed %d perf cells, its plan has %d unique ones", g.perfCalls, want.perf)
	r.check(g.flipCalls == want.flip+want.wear, "gate executed %d flip runs, its plan has %d unique flip and wear cells", g.flipCalls, want.flip+want.wear)
	if tracer != nil {
		g.tree = tracer.Snapshot()
	}
	return g, nil
}

// cellDurations returns the duration of every outermost cell span (a wear
// cell's nested flip run is part of the wear cell).
func cellDurations(t *span.Tree) []time.Duration {
	var out []time.Duration
	var walk func(n *span.Node)
	walk = func(n *span.Node) {
		if strings.HasPrefix(n.Name, "cell/") {
			out = append(out, time.Duration(n.DurNs))
			return
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	for _, root := range t.Roots {
		walk(root)
	}
	return out
}

// busyNs sums the self time of the span tree under the named root. Shared
// warm state records detached roots whose time the cell that built it
// also covers; summing under the gate's own root counts each moment once
// per goroutine.
func busyNs(t *span.Tree, root string) int64 {
	var sum int64
	var walk func(n *span.Node)
	walk = func(n *span.Node) {
		sum += n.SelfNs()
		for _, c := range n.Children {
			walk(c)
		}
	}
	for _, n := range t.Roots {
		if n.Name == root {
			walk(n)
		}
	}
	return sum
}

// tracedGate runs the gate without a tracer and then with one, and
// reports where the traced gate's time went.
func tracedGate(r *run, rc exp.RunConfig, exps []fidelity.Expectation, plan *exp.Plan, want gateCells) error {
	plain, err := gateOnce(r, rc, exps, want, nil)
	if err != nil {
		return err
	}
	g, err := gateOnce(r, rc, exps, want, span.New())
	if err != nil {
		return err
	}
	r.segments = 2
	r.add("bench.trace_overhead", g.wall.Seconds()/plain.wall.Seconds())
	r.add("exp.gate_s", g.wall.Seconds())
	prof := g.tree.Profile()
	for _, m := range []struct{ metric, span string }{
		{"exp.cell_flip_s", "cell/flip"},
		{"exp.cell_perf_s", "cell/perf"},
		{"exp.cell_wear_s", "cell/wear"},
		{"exp.warmup_s", "warmup"},
		{"exp.warm_stream_s", "warm-stream"},
		{"exp.warm_scheme_s", "warm-scheme"},
		{"timing.run_s", "timing.run"},
		{"timing.shard_s", "timing.shard"},
		{"exp.plan_s", "plan.build"},
		{"fidelity.evaluate_s", "evaluate"},
	} {
		r.add(m.metric, float64(prof.Lookup(m.span).SelfNs)/1e9)
	}
	_, critical := span.CriticalPathDAG(plan.SpanDAG(g.tree.MaxDurByAttr("key")))
	r.add("exp.critical_path_s", float64(critical)/1e9)
	r.add("exp.parallelism", float64(busyNs(g.tree, "fidelity.check"))/float64(g.wall))
	r.add("exp.run_perf_calls", float64(g.perfCalls))
	r.add("exp.run_flips_calls", float64(g.flipCalls))
	r.add("exp.cache_hits", float64(g.reuse.CacheHits))
	r.add("exp.cache_misses", float64(g.reuse.CacheMisses))
	r.add("exp.warm_forks", float64(g.reuse.WarmForks))
	r.add("exp.cold_warmups", float64(g.reuse.ColdWarmups))
	return nil
}
