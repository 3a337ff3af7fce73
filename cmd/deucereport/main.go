// Command deucereport is the repository's paper-fidelity gate. It turns
// EXPERIMENTS.md's "measured vs paper" summary table from prose into an
// enforced contract (internal/fidelity): check runs the experiments and
// verdicts every expectation, and with -outdir records each experiment's
// table as typed-cell JSON. The CI-scale recording is committed as
// internal/fidelity/testdata/gate; CI re-records it and fails on any byte
// difference, so a change that moves any value — even inside its
// tolerance — shows up in review with the re-recorded golden copy.
//
// Usage:
//
//	deucereport check -experiment all            # run the fidelity gate
//	deucereport check -experiment fig10,fig15 -writebacks 6000 -lines 512
//	deucereport check -experiment all -writebacks 6000 -lines 512 -outdir results/   # also record the tables
//	deucereport check -from results/             # re-verdict a recording, zero runs
//	deucereport check -experiment all -spans out/     # + chrome trace, self-profile, critical path
//	deucereport plan -experiment all -writebacks 6000 -lines 512   # dry-run the execution DAG
//	deucereport plan -experiment all -profile         # execute the DAG traced; per-node durations
//
// check exits non-zero when any paper expectation fails, naming the
// figure, metric, measured value, paper value and tolerance — the CI
// fidelity job is exactly `deucereport check` at reduced scale, followed
// by a byte comparison of its recording against the golden copy
// (`make fidelity`; `make fidelity-record` re-records it).
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
	fmt.Fprint(os.Stderr, `deucereport — paper-fidelity gate

subcommands:
  check    run experiments and verdict every paper expectation (exit 1 on violation);
           -outdir records each table as JSON, -from re-verdicts a recording
           with zero runs, -spans writes a Chrome trace, self-profile and
           critical-path table
  plan     dry-run the experiment planner: the deduplicated warmup/cell/table
           DAG a gate run would execute, without running anything;
           -profile executes the cells traced and renders the DAG critical path

run 'deucereport <subcommand> -h' for flags.
`)
}

// sizeFlags registers the experiment-scale flags shared by check and
// plan. Defaults of 0 mean the exp package defaults (30000/2048); CI
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
	} else {
		report, tables, err = fidelity.Check(rc, exps)
		if err != nil {
			return err
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
		r := exp.Reuse()
		fmt.Printf("reuse: %d warmups; cache %d hits / %d misses\n", r.ColdWarmups, r.CacheHits, r.CacheMisses)
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
		header := reportHeader(rc)
		if *from != "" {
			header = fmt.Sprintf("deucereport check\n\nSource: recorded tables from `%s`.\n\n", *from)
		}
		md := header + report.Markdown()
		if err := writeFileMkdir(*out, md); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *out)
	}
	if !report.Pass() {
		return fmt.Errorf("%d of %d expectations violated", len(report.Failures())+len(report.Missing),
			len(report.Verdicts)+len(report.Missing))
	}
	return nil
}

// cmdPlan renders the experiment planner's dry run: the deduplicated
// warm-stream -> cell -> table DAG a gate over the selected
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

// reportHeader stamps the scale a fidelity matrix was measured at, so a
// reduced-scale CI artifact cannot be mistaken for a full-scale run.
func reportHeader(rc exp.RunConfig) string {
	wb, ln := rc.Writebacks, rc.Lines
	if wb == 0 {
		wb = 30000
	}
	if ln == 0 {
		ln = 2048
	}
	return fmt.Sprintf("deucereport check\n\nScale: %d writebacks, %d lines, seed %d.\n\n", wb, ln, rc.Seed)
}

// writeSpanArtifacts writes a traced gate's three artifacts into dir: the
// Chrome trace-event timeline (chrome-trace.json), the per-name
// self-profile (self-profile.json), and the critical-path markdown table
// (critical-path.md).
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
		b.WriteString("\nCoverage is below 95%: wall clock outside the traced check (table IO, process startup) makes up the gap.\n")
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

func writeFileMkdir(path, content string) error {
	if dir := filepath.Dir(path); dir != "." && dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	return os.WriteFile(path, []byte(content), 0o644)
}
