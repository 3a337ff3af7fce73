// Command deucereport is the repository's fidelity gate and regression
// ledger front-end. It turns EXPERIMENTS.md's "measured vs paper" summary
// table from prose into an enforced contract (internal/fidelity) and keeps
// a cross-run JSONL ledger of what check measures — fidelity values, and
// with -spans the gate's wall-clock profile — with noise-aware
// comparisons (internal/regress).
//
// Usage:
//
//	deucereport check -experiment all            # run the fidelity gate
//	deucereport check -experiment fig10,fig15 -writebacks 6000 -lines 512
//	deucereport check -experiment all -outdir results/   # gate run doubles as a recording
//	deucereport check -experiment all -outdir results/   # again: incremental, unchanged experiments reused
//	deucereport check -from results/             # re-verdict the recording, zero runs
//	deucereport check -experiment all -spans out/     # + chrome trace, self-profile, critical path
//	deucereport plan -experiment all -writebacks 6000 -lines 512   # dry-run the execution DAG
//	deucereport plan -experiment all -profile         # execute the DAG traced; per-node durations
//	deucereport check -experiment all -ledger runs.jsonl -id $(git rev-parse --short HEAD)
//	deucereport ledger -ledger runs.jsonl -seed ci/ledger-seed.jsonl -keep 200
//	deucereport compare -ledger runs.jsonl HEAD~1 HEAD
//	deucereport compare -ledger runs.jsonl -baseline 3 HEAD
//	deucereport compare -ledger runs.jsonl -baseline 5 -gate -out drift.md HEAD   # CI drift gate
//	deucereport compare -ledger runs.jsonl -baseline 5 -gate -walltime-threshold 25 HEAD
//	deucereport report -ledger runs.jsonl -out report.md
//
// check exits non-zero when any paper expectation fails, naming the
// figure, metric, measured value, paper value and tolerance — the CI
// fidelity job is exactly `deucereport check` at reduced scale.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"deuce/internal/exp"
	"deuce/internal/fidelity"
	"deuce/internal/obs/span"
	"deuce/internal/regress"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "check":
		err = cmdCheck(os.Args[2:])
	case "plan":
		err = cmdPlan(os.Args[2:])
	case "compare":
		err = cmdCompare(os.Args[2:])
	case "report":
		err = cmdReport(os.Args[2:])
	case "ledger":
		err = cmdLedger(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "deucereport: unknown subcommand %q\n\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "deucereport:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `deucereport — paper-fidelity gate and cross-run regression ledger

subcommands:
  check    run experiments and verdict every paper expectation (exit 1 on violation);
           -from re-verdicts recorded tables, -outdir records the run and makes
           later checks incremental (unchanged experiments reuse the recording),
           -spans writes a Chrome trace, self-profile and critical-path table
  plan     dry-run the experiment planner: the deduplicated warmup/cell/table
           DAG a gate run would execute, without running anything;
           -profile executes the cells traced and renders the DAG critical path
  compare  benchstat-style per-metric deltas between two ledger runs;
           -gate turns significant drift vs the baseline into a non-zero exit,
           -walltime-threshold additionally gates walltime: duration metrics
  report   markdown artifact: fidelity matrix + time attribution + cross-run trends
  ledger   maintenance for a persisted ledger: seed from a committed fallback, compact

run 'deucereport <subcommand> -h' for flags.
`)
}

// sizeFlags registers the experiment-scale flags shared by check and
// report. Defaults of 0 mean the exp package defaults (30000/2048); CI
// passes -writebacks 6000 -lines 512 for the reduced-scale gate the
// tolerances are calibrated for.
func sizeFlags(fs *flag.FlagSet) (writebacks, lines, warmup *int, seed *int64) {
	writebacks = fs.Int("writebacks", 0, "measured writebacks per workload (0 = default 30000)")
	lines = fs.Int("lines", 0, "working-set lines per core (0 = default 2048)")
	warmup = fs.Int("warmup", 0, "warm-up writebacks (0 = default 2x working set)")
	seed = fs.Int64("seed", 1, "workload generator seed")
	return
}

// selectExpectations resolves the -experiment flag: "all" (or empty) means
// the full table — the paper expectations plus the extension durability
// drills (ext-eadr, ext-ctrrec) — otherwise a comma-separated list of
// experiment IDs.
func selectExpectations(spec string) ([]fidelity.Expectation, error) {
	all := append(fidelity.Expectations(), fidelity.ExtensionExpectations()...)
	if spec == "" || spec == "all" {
		return all, nil
	}
	ids := strings.Split(spec, ",")
	for i := range ids {
		ids[i] = strings.TrimSpace(ids[i])
	}
	// Reject unknown IDs loudly: a typo must not silently check nothing.
	known := make(map[string]bool)
	for _, id := range fidelity.ExperimentIDs(all) {
		known[id] = true
	}
	for _, id := range ids {
		if !known[id] {
			return nil, fmt.Errorf("no expectations for experiment %q (known: %s)",
				id, strings.Join(fidelity.ExperimentIDs(all), ", "))
		}
	}
	exps := fidelity.Filter(all, ids)
	return exps, nil
}

func cmdCheck(args []string) error {
	fs := flag.NewFlagSet("check", flag.ExitOnError)
	experiment := fs.String("experiment", "all", "experiment IDs to gate: 'all' or a comma-separated list (fig5,fig10,...)")
	writebacks, lines, warmup, seed := sizeFlags(fs)
	out := fs.String("out", "", "also write the fidelity matrix as markdown to this file")
	from := fs.String("from", "", "re-verdict recorded table JSON from this directory (zero experiment runs)")
	outdir := fs.String("outdir", "", "write each experiment's table JSON here, so the gate run doubles as a recording")
	ledger := fs.String("ledger", "", "append the measured values to this JSONL ledger (requires -id)")
	id := fs.String("id", "", "run ID to record under with -ledger")
	spans := fs.String("spans", "", "trace the gate with hierarchical spans and write chrome-trace.json, self-profile.json and critical-path.md to this directory")
	verbose := fs.Bool("v", false, "print every verdict, not just failures")
	fs.Parse(args)

	exps, err := selectExpectations(*experiment)
	if err != nil {
		return err
	}
	rc := exp.RunConfig{Writebacks: *writebacks, Lines: *lines, Warmup: *warmup, Seed: *seed}
	var tracer *span.Tracer
	if *spans != "" {
		tracer = span.New()
		rc.Spans = tracer
	}

	var report *fidelity.Report
	var tables map[string]*exp.Table
	source := "deucereport check"
	start := time.Now()
	if *from != "" {
		// Recorded mode: the scale (and recording) flags belong to the
		// run that produced the tables; accepting them here would
		// silently verdict against a scale that was never measured.
		var conflict []string
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "writebacks", "lines", "warmup", "seed", "outdir", "spans":
				conflict = append(conflict, "-"+f.Name)
			}
		})
		if len(conflict) > 0 {
			return fmt.Errorf("-from evaluates recorded tables; %s have no effect there", strings.Join(conflict, ", "))
		}
		tables, err = exp.LoadTables(*from)
		if err != nil {
			return err
		}
		// Verdict only the experiments the selection references, but
		// against everything the recording holds: an absent experiment
		// must surface as a Missing failure, not a narrowed gate.
		report = fidelity.EvaluateTables(tables, exps)
		source = "deucereport check -from"
	} else {
		// Incremental mode: when -outdir already holds a recording, reuse
		// every recorded table whose Inputs hash still matches the live
		// configuration and re-run only the rest. A missing or unreadable
		// directory simply means a full (cold) run that will seed it.
		var recorded map[string]*exp.Table
		if *outdir != "" {
			if prev, lerr := exp.LoadTables(*outdir); lerr == nil {
				recorded = prev
			}
		}
		var inc fidelity.Incremental
		report, tables, inc, err = fidelity.CheckWithRecorded(rc, exps, recorded)
		if err != nil {
			return err
		}
		if recorded != nil {
			fmt.Printf("incremental: %d reused, %d re-run (of %d experiments)\n",
				len(inc.Reused), len(inc.Reran), len(inc.Reused)+len(inc.Reran))
		}
	}
	elapsed := time.Since(start).Round(time.Millisecond)

	if *verbose {
		for _, v := range report.Verdicts {
			mark := "pass"
			if !v.Pass {
				mark = "FAIL"
			}
			fmt.Printf("  [%s] %s\n", mark, v.Detail)
		}
	}
	for _, v := range report.Failures() {
		fmt.Fprintf(os.Stderr, "FAIL %s\n", v.Detail)
	}
	for _, e := range report.Missing {
		fmt.Fprintf(os.Stderr, "FAIL %s: experiment exported no value under this metric name\n", e.Name())
	}
	if *from != "" {
		fmt.Printf("%s (%d recorded tables from %s, in %v)\n", report.Summary(), len(tables), *from, elapsed)
	} else {
		fmt.Printf("%s (%d experiments in %v)\n", report.Summary(), len(tables), elapsed)
		fmt.Println(reuseLine())
	}

	if tracer != nil {
		tree := tracer.Snapshot()
		if err := writeSpanArtifacts(*spans, tree, elapsed); err != nil {
			return err
		}
		fmt.Printf("spans: %d spans covering %s of the %v gate; wrote %s\n",
			tree.Spans, span.FormatNs(tree.WallNs()), elapsed, *spans)
	}

	if *outdir != "" {
		if err := exp.WriteTables(*outdir, tables); err != nil {
			return err
		}
		fmt.Printf("recorded %d tables in %s\n", len(tables), *outdir)
	}
	if *out != "" {
		header := reportHeader("deucereport check", rc)
		if *from != "" {
			header = fmt.Sprintf("deucereport check\n\nSource: recorded tables from `%s`.\n\n", *from)
		}
		md := header + report.Markdown()
		if err := writeFileMkdir(*out, md); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *out)
	}
	if *ledger != "" {
		if *id == "" {
			return fmt.Errorf("-ledger requires -id")
		}
		run := regress.Run{ID: *id, Source: source}
		// In -from mode the recording may hold more experiments than the
		// selection gates on; record only the gated ones, matching what a
		// live run of the same selection would have produced.
		gated := make(map[string]bool)
		for _, eid := range fidelity.ExperimentIDs(exps) {
			gated[eid] = true
		}
		for expID, t := range tables {
			if gated[expID] {
				regress.IngestValues(&run, expID, t.Values)
			}
		}
		// Wall-clock metrics ride the same ledger under the "walltime:"
		// namespace, so compare can gate gate-duration regressions — at
		// its own threshold, never the value threshold.
		if *from == "" {
			run.Set("walltime:gate:ns", float64(elapsed.Nanoseconds()))
		}
		if tracer != nil {
			f, err := os.Open(filepath.Join(*spans, "self-profile.json"))
			if err != nil {
				return err
			}
			err = regress.IngestSpanProfile(&run, f)
			f.Close()
			if err != nil {
				return err
			}
		}
		if err := regress.Append(*ledger, run); err != nil {
			return err
		}
		fmt.Printf("recorded %d metrics as %q in %s\n", len(run.Metrics), *id, *ledger)
	}
	if !report.Pass() {
		return fmt.Errorf("%d of %d expectations violated", len(report.Failures())+len(report.Missing),
			len(report.Verdicts)+len(report.Missing))
	}
	return nil
}

// reuseLine renders warm-state reuse and experiment-cache effectiveness
// for the run so far, one line for check/report output.
func reuseLine() string {
	r := exp.Reuse()
	return fmt.Sprintf("reuse: %d warm forks, %d cold warmups; cache %d hits / %d misses",
		r.WarmForks, r.ColdWarmups, r.CacheHits, r.CacheMisses)
}

// cmdPlan renders the experiment planner's dry run: the deduplicated
// warm-stream -> warm-scheme -> cell -> table DAG a gate over the selected
// experiments would execute at the given scale, without running anything.
func cmdPlan(args []string) error {
	fs := flag.NewFlagSet("plan", flag.ExitOnError)
	experiment := fs.String("experiment", "all", "experiment IDs to plan: 'all' or a comma-separated list (fig5,fig10,...)")
	writebacks, lines, warmup, seed := sizeFlags(fs)
	out := fs.String("out", "", "also write the dry-run (or profile) to this file")
	profile := fs.Bool("profile", false, "execute the plan's cells under span tracing and render per-node durations plus the DAG critical path (runs real work, unlike the default dry run)")
	fs.Parse(args)

	exps, err := selectExpectations(*experiment)
	if err != nil {
		return err
	}
	rc := exp.RunConfig{Writebacks: *writebacks, Lines: *lines, Warmup: *warmup, Seed: *seed}
	var tracer *span.Tracer
	if *profile {
		tracer = span.New()
		rc.Spans = tracer
	}
	plan, err := exp.BuildPlan(fidelity.ExperimentIDs(exps), rc)
	if err != nil {
		return err
	}
	var rendered string
	if *profile {
		start := time.Now()
		if err := plan.ExecuteCells(nil); err != nil {
			return err
		}
		elapsed := time.Since(start)
		tree := tracer.Snapshot()
		// The tree's "key" identity attributes carry the same cache-key
		// strings the plan nodes use, so measured durations map straight
		// onto the DAG.
		rendered = planProfileMarkdown(plan, plan.SpanDAG(tree.MaxDurByAttr("key")), tree, elapsed)
		fmt.Print(rendered)
	} else {
		plan.Render(os.Stdout)
		var b strings.Builder
		plan.Render(&b)
		rendered = b.String()
	}
	if *out != "" {
		if err := writeFileMkdir(*out, rendered); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *out)
	}
	return nil
}

// planProfileMarkdown renders a profiled plan execution: the DAG critical
// path — the dependency chain that bounds wall clock no matter how many
// workers run — and the slowest individual nodes, with measured durations
// recovered from the span tree via each node's cache key.
func planProfileMarkdown(p *exp.Plan, nodes []span.DAGNode, tree *span.Tree, elapsed time.Duration) string {
	chain, totalNs := span.CriticalPathDAG(nodes)
	st := p.Stats()
	var b strings.Builder
	b.WriteString("# Plan execution profile\n\n")
	fmt.Fprintf(&b, "%d experiments, %d plan nodes (%d unique cells), cells executed in %v (%d spans collected).\n\n",
		len(p.Experiments), len(nodes), st.Cells, elapsed.Round(time.Millisecond), tree.Spans)
	fmt.Fprintf(&b, "Critical path: %s across %d nodes — the wall-clock lower bound however many workers run",
		span.FormatNs(totalNs), len(chain))
	if totalNs > 0 && elapsed.Nanoseconds() > 0 {
		fmt.Fprintf(&b, " (measured wall clock is %.2fx that bound)", float64(elapsed.Nanoseconds())/float64(totalNs))
	}
	b.WriteString(".\n\n| # | Node | Duration | Finish |\n|---|---|---|---|\n")
	var finish int64
	for i, ni := range chain {
		finish += nodes[ni].DurNs
		fmt.Fprintf(&b, "| %d | %s | %s | %s |\n", i+1, nodes[ni].Label,
			span.FormatNs(nodes[ni].DurNs), span.FormatNs(finish))
	}
	// Slowest nodes overall, not just on the chain: once the chain's head
	// is optimized, the next-longest nodes are where the bound moves to.
	order := make([]int, len(nodes))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, c int) bool {
		if nodes[order[a]].DurNs != nodes[order[c]].DurNs {
			return nodes[order[a]].DurNs > nodes[order[c]].DurNs
		}
		return nodes[order[a]].Label < nodes[order[c]].Label
	})
	b.WriteString("\n## Slowest nodes\n\n| Node | Duration |\n|---|---|\n")
	shown := 0
	for _, i := range order {
		if shown == 12 || nodes[i].DurNs == 0 {
			break
		}
		fmt.Fprintf(&b, "| %s | %s |\n", nodes[i].Label, span.FormatNs(nodes[i].DurNs))
		shown++
	}
	return b.String()
}

func cmdCompare(args []string) error {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	ledger := fs.String("ledger", "", "JSONL ledger path (required)")
	threshold := fs.Float64("threshold", 2.0, "percent change below which a metric counts as noise")
	baselineN := fs.Int("baseline", 0, "compare NEW against a median-of-last-N baseline instead of a named OLD run")
	all := fs.Bool("all", false, "list every metric, including ones within the noise threshold")
	out := fs.String("out", "", "also write the comparison as markdown to this file")
	gate := fs.Bool("gate", false, "exit non-zero when a metric present in both runs drifts beyond the threshold; metrics that only appeared or vanished are reported but do not gate, and an empty baseline passes (fresh ledger)")
	wallThreshold := fs.Float64("walltime-threshold", 0, "percent drift at which walltime: metrics (gate/span durations) gate; 0 reports them without gating — wall clock is noisy, so they never ride the value threshold")
	fs.Parse(args)

	if *ledger == "" {
		return fmt.Errorf("compare requires -ledger")
	}
	runs, err := regress.Load(*ledger)
	if err != nil {
		return err
	}
	var oldRun, newRun regress.Run
	switch {
	case *baselineN > 0 && fs.NArg() == 1:
		// Baseline mode: the new run is the named arg; the baseline is the
		// median of the N runs before it (noise-aware, per benchstat).
		newRun, err = regress.Find(runs, fs.Arg(0))
		if err != nil {
			return err
		}
		prior := priorRuns(runs, newRun, *baselineN)
		if len(prior) == 0 {
			if *gate {
				// A drift gate on a fresh (or just-seeded) ledger has
				// nothing to drift against; failing here would make the
				// first CI run on every new branch red by construction.
				fmt.Printf("drift gate: no prior runs in %s to form a baseline; passing\n", *ledger)
				return nil
			}
			return fmt.Errorf("no prior runs to form a baseline from")
		}
		oldRun, err = regress.Baseline(prior, min(2, len(prior)))
		if err != nil {
			return err
		}
	case fs.NArg() == 2:
		oldRun, err = regress.Find(runs, fs.Arg(0))
		if err != nil {
			return err
		}
		newRun, err = regress.Find(runs, fs.Arg(1))
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("usage: compare -ledger L OLD NEW   or   compare -ledger L -baseline N NEW")
	}

	deltas := regress.Compare(oldRun, newRun)
	md := regress.CompareMarkdown(oldRun.ID, newRun.ID, deltas, *threshold, !*all)
	fmt.Print(md)
	if *out != "" {
		if err := writeFileMkdir(*out, md); err != nil {
			return err
		}
		fmt.Printf("\nwrote %s\n", *out)
	}
	sig := 0
	type driftEntry struct {
		d  regress.Delta
		th float64
	}
	var drifted []driftEntry
	for _, d := range deltas {
		// Walltime metrics (span/gate durations) never ride the value
		// threshold: wall clock drifts with machine load in ways
		// simulated values cannot, so they gate only at their own
		// opted-into threshold and are merely reported otherwise.
		th := *threshold
		if regress.IsWalltime(d.Metric) {
			if *wallThreshold <= 0 {
				continue
			}
			th = *wallThreshold
		}
		if !d.Significant(th) {
			continue
		}
		sig++
		// The gate only fires on metrics both runs measured: a metric
		// this change introduced (or retired) is expected churn, not
		// drift, and would otherwise fail every PR that adds telemetry.
		if d.OnlyIn == "" {
			drifted = append(drifted, driftEntry{d, th})
		}
	}
	fmt.Printf("\n%d of %d metrics changed beyond ±%.3g%%\n", sig, len(deltas), *threshold)
	if *wallThreshold > 0 {
		fmt.Printf("(walltime: metrics gated at ±%.3g%%)\n", *wallThreshold)
	}
	if *gate && len(drifted) > 0 {
		for _, e := range drifted {
			fmt.Fprintf(os.Stderr, "DRIFT %s: %g -> %g (%+.2f%% vs ±%.3g%%)\n",
				e.d.Metric, e.d.Old, e.d.New, e.d.Pct, e.th)
		}
		return fmt.Errorf("%d metrics drifted beyond their thresholds against baseline %q", len(drifted), oldRun.ID)
	}
	return nil
}

// priorRuns returns up to n runs strictly before the given run in ledger
// order (matching by identity on the latest entry with that ID).
func priorRuns(runs []regress.Run, ref regress.Run, n int) []regress.Run {
	end := len(runs)
	for i := len(runs) - 1; i >= 0; i-- {
		if runs[i].ID == ref.ID && runs[i].Time.Equal(ref.Time) {
			end = i
			break
		}
	}
	start := end - n
	if start < 0 {
		start = 0
	}
	return runs[start:end]
}

// cmdLedger is the maintenance entry point a persisted-ledger CI workflow
// needs: ensure a ledger exists (falling back to a committed seed when a
// cache restore came up empty) and bound its growth.
func cmdLedger(args []string) error {
	fs := flag.NewFlagSet("ledger", flag.ExitOnError)
	ledger := fs.String("ledger", "", "JSONL ledger path (required)")
	seed := fs.String("seed", "", "committed fallback ledger: copied in when -ledger is missing or empty")
	keep := fs.Int("keep", 0, "compact the ledger to its newest N runs (0 = no compaction)")
	fs.Parse(args)

	if *ledger == "" {
		return fmt.Errorf("ledger requires -ledger")
	}
	runs, err := regress.Load(*ledger)
	if err != nil {
		return err
	}
	if len(runs) == 0 && *seed != "" {
		seeded, err := regress.Load(*seed)
		if err != nil {
			return err
		}
		if err := regress.WriteAll(*ledger, seeded); err != nil {
			return err
		}
		fmt.Printf("seeded %s with %d runs from %s\n", *ledger, len(seeded), *seed)
		runs = seeded
	}
	if *keep > 0 {
		kept, err := regress.Compact(*ledger, *keep)
		if err != nil {
			return err
		}
		if kept < len(runs) {
			fmt.Printf("compacted %s: %d -> %d runs\n", *ledger, len(runs), kept)
		}
		runs = runs[len(runs)-kept:]
	}
	fmt.Printf("%s: %d runs\n", *ledger, len(runs))
	return nil
}

func cmdReport(args []string) error {
	fs := flag.NewFlagSet("report", flag.ExitOnError)
	ledger := fs.String("ledger", "", "JSONL ledger to render trends from (optional)")
	out := fs.String("out", "report.md", "markdown output path")
	experiment := fs.String("experiment", "all", "experiment IDs for the fidelity matrix ('none' to skip running experiments)")
	writebacks, lines, warmup, seed := sizeFlags(fs)
	width := fs.Int("width", 32, "sparkline width in the trend table")
	filter := fs.String("filter", "", "only trend metrics containing this substring")
	fs.Parse(args)

	var b strings.Builder
	b.WriteString("# DEUCE reproduction report\n\n")
	rc := exp.RunConfig{Writebacks: *writebacks, Lines: *lines, Warmup: *warmup, Seed: *seed}

	pass := true
	if *experiment != "none" {
		exps, err := selectExpectations(*experiment)
		if err != nil {
			return err
		}
		tracer := span.New()
		rc.Spans = tracer
		start := time.Now()
		report, _, err := fidelity.Check(rc, exps)
		if err != nil {
			return err
		}
		elapsed := time.Since(start)
		pass = report.Pass()
		fmt.Printf("%s (in %v)\n", report.Summary(), elapsed.Round(time.Millisecond))
		fmt.Println(reuseLine())
		b.WriteString("## Fidelity matrix\n\n")
		b.WriteString(reportHeader("", rc))
		b.WriteString(report.Markdown())
		b.WriteString("\n" + report.Summary() + "\n\n")
		b.WriteString(timeAttributionMarkdown(tracer.Snapshot(), elapsed))
	}

	if *ledger != "" {
		runs, err := regress.Load(*ledger)
		if err != nil {
			return err
		}
		if len(runs) > 0 {
			names := regress.MetricNames(runs)
			if *filter != "" {
				kept := names[:0]
				for _, n := range names {
					if strings.Contains(n, *filter) {
						kept = append(kept, n)
					}
				}
				names = kept
			}
			sort.Strings(names)
			if len(names) > 0 {
				fmt.Fprintf(&b, "## Cross-run trends\n\n%d runs in `%s` (oldest → newest):\n\n",
					len(runs), filepath.Base(*ledger))
				b.WriteString(regress.TrendMarkdown(runs, names, *width))
				b.WriteString("\n")
			}
		}
	}

	if err := writeFileMkdir(*out, b.String()); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", *out)
	if !pass {
		return fmt.Errorf("fidelity check failed (see %s)", *out)
	}
	return nil
}

// reportHeader stamps the scale a fidelity matrix was measured at, so a
// reduced-scale CI artifact cannot be mistaken for a full-scale run.
func reportHeader(title string, rc exp.RunConfig) string {
	wb, ln := rc.Writebacks, rc.Lines
	if wb == 0 {
		wb = 30000
	}
	if ln == 0 {
		ln = 2048
	}
	s := fmt.Sprintf("Scale: %d writebacks, %d lines, seed %d.\n\n", wb, ln, rc.Seed)
	if title != "" {
		s = title + "\n\n" + s
	}
	return s
}

// writeSpanArtifacts writes a traced gate's three artifacts into dir: the
// Chrome trace-event timeline (chrome-trace.json), the per-name
// self-profile (self-profile.json — what the ledger ingests as walltime
// metrics), and the critical-path markdown table (critical-path.md).
func writeSpanArtifacts(dir string, tree *span.Tree, gate time.Duration) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	ct, err := os.Create(filepath.Join(dir, "chrome-trace.json"))
	if err != nil {
		return err
	}
	if err := tree.WriteChromeTrace(ct); err != nil {
		ct.Close()
		return err
	}
	if err := ct.Close(); err != nil {
		return err
	}
	prof := tree.Profile()
	sf, err := os.Create(filepath.Join(dir, "self-profile.json"))
	if err != nil {
		return err
	}
	if err := prof.WriteJSON(sf); err != nil {
		sf.Close()
		return err
	}
	if err := sf.Close(); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "critical-path.md"),
		[]byte(criticalPathMarkdown(tree, prof, gate)), 0o644)
}

// criticalPathMarkdown renders a traced gate's time attribution: a
// coverage line (how much of the measured wall clock the span tree
// accounts for), the chain of spans whose completion gated the run's end,
// and the per-name profile sorted by total time.
func criticalPathMarkdown(tree *span.Tree, prof span.Profile, gate time.Duration) string {
	var b strings.Builder
	b.WriteString("# Gate time attribution\n\n")
	cov := 0.0
	if gate > 0 {
		cov = 100 * float64(tree.WallNs()) / float64(gate.Nanoseconds())
	}
	fmt.Fprintf(&b, "Measured gate wall clock %v; %d spans covering %s (%.1f%% of the gate).\n",
		gate, tree.Spans, span.FormatNs(tree.WallNs()), cov)
	if cov < 95 {
		b.WriteString("\nCoverage is below 95%: wall clock outside the traced check (table IO, ledger writes, process startup) makes up the gap.\n")
	}
	b.WriteString("\n## Critical path\n\n")
	b.WriteString("| Span | Identity | Start | Duration | Self |\n|---|---|---|---|---|\n")
	for _, n := range tree.CriticalPath() {
		fmt.Fprintf(&b, "| %s | %s | %s | %s | %s |\n", n.Name, attrCell(n.Attrs),
			span.FormatNs(n.StartNs), span.FormatNs(n.DurNs), span.FormatNs(n.SelfNs()))
	}
	b.WriteString("\n## Where the time went\n\n")
	b.WriteString("| Span | Count | Total | Self | Max |\n|---|---|---|---|---|\n")
	const topK = 12
	for i, e := range prof.Entries {
		if i == topK {
			fmt.Fprintf(&b, "\n(%d further span names omitted)\n", len(prof.Entries)-topK)
			break
		}
		fmt.Fprintf(&b, "| %s | %d | %s | %s | %s |\n", e.Name, e.Count,
			span.FormatNs(e.TotalNs), span.FormatNs(e.SelfNs), span.FormatNs(e.MaxNs))
	}
	b.WriteString("\nTotals double-count nested and parallel spans against wall clock, as any cumulative profile does; warm-state computations additionally appear both inside the cell that triggered them and as their own roots.\n")
	return b.String()
}

// attrCell renders a span's identity attributes for one markdown cell,
// truncating long cache keys and escaping their '|' separators.
func attrCell(attrs []span.Attr) string {
	if len(attrs) == 0 {
		return "—"
	}
	parts := make([]string, 0, len(attrs))
	for _, a := range attrs {
		v := a.Value
		if len(v) > 40 {
			v = v[:37] + "..."
		}
		parts = append(parts, a.Key+"="+strings.ReplaceAll(v, "|", "\\|"))
	}
	return strings.Join(parts, ", ")
}

// timeAttributionMarkdown is the report's condensed span summary: where
// the checked experiments' wall clock went by span name, and the critical
// chain.
func timeAttributionMarkdown(tree *span.Tree, elapsed time.Duration) string {
	if tree.Spans == 0 {
		return ""
	}
	prof := tree.Profile()
	var b strings.Builder
	b.WriteString("## Time attribution\n\n")
	fmt.Fprintf(&b, "%d spans covering %s of the %v check.\n\n",
		tree.Spans, span.FormatNs(tree.WallNs()), elapsed.Round(time.Millisecond))
	b.WriteString("| Span | Count | Total | Self |\n|---|---|---|---|\n")
	for i, e := range prof.Entries {
		if i == 8 {
			break
		}
		fmt.Fprintf(&b, "| %s | %d | %s | %s |\n", e.Name, e.Count,
			span.FormatNs(e.TotalNs), span.FormatNs(e.SelfNs))
	}
	var names []string
	for _, n := range tree.CriticalPath() {
		names = append(names, fmt.Sprintf("%s %s", n.Name, span.FormatNs(n.DurNs)))
	}
	if len(names) > 0 {
		fmt.Fprintf(&b, "\nCritical path: %s.\n", strings.Join(names, " → "))
	}
	b.WriteString("\n")
	return b.String()
}

func writeFileMkdir(path, content string) error {
	if dir := filepath.Dir(path); dir != "." && dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	return os.WriteFile(path, []byte(content), 0o644)
}
