// Command deucebench regenerates the tables and figures of the DEUCE paper
// (ASPLOS 2015) from the simulator in this repository.
//
// Usage:
//
//	deucebench -experiment fig10          # one experiment
//	deucebench -experiment all            # everything, in paper order
//	deucebench -writebacks 100000 -lines 4096 -seed 7 -experiment fig5
//	deucebench -experiment all -progress -outdir results/
//	deucebench -experiment all -http :6060   # expvar + pprof while running
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"deuce/internal/exp"
	"deuce/internal/obs"
	"deuce/internal/obs/span"
)

func main() {
	var (
		experiment = flag.String("experiment", "all", "experiment ID (see -list), 'all' for the paper suite, or 'ablations'")
		writebacks = flag.Int("writebacks", 0, "measured writebacks per workload (0 = default)")
		lines      = flag.Int("lines", 0, "working-set lines per core (0 = default)")
		warmup     = flag.Int("warmup", 0, "warm-up writebacks (0 = default)")
		seed       = flag.Int64("seed", 1, "workload generator seed")
		format     = flag.String("format", "text", "output format: text or csv")
		outDir     = flag.String("outdir", "", "also write each experiment's output (and a runmeta.json manifest) into this directory")
		metricsOut = flag.String("metrics", "", "export suite-level metrics (per-experiment wall time, cell counts) as an obs snapshot JSON to this file")
		spansDir   = flag.String("spans", "", "trace the suite with hierarchical spans and write chrome-trace.json + self-profile.json to this directory")
		progress   = flag.Bool("progress", false, "report live grid-cell progress/throughput/ETA on stderr")
		httpAddr   = flag.String("http", "", "serve expvar and pprof on this address (e.g. :6060) while experiments run")
		list       = flag.Bool("list", false, "list experiments and exit")
		version    = flag.Bool("version", false, "print build/version information and exit")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the experiment runs to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile (after the runs) to this file")
	)
	flag.Parse()

	if *version {
		fmt.Println(obs.ReadBuildInfo().String())
		return
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "deucebench:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "deucebench:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "deucebench:", err)
				os.Exit(1)
			}
			defer f.Close()
			runtime.GC() // report live steady-state heap, not transient garbage
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "deucebench:", err)
				os.Exit(1)
			}
		}()
	}

	if *list {
		for _, e := range exp.Experiments() {
			fmt.Printf("%-12s %s\n", e.ID, e.Paper)
		}
		for _, e := range exp.Ablations() {
			fmt.Printf("%-12s %s\n", e.ID, e.Paper)
		}
		for _, e := range exp.Extensions() {
			fmt.Printf("%-12s %s\n", e.ID, e.Paper)
		}
		return
	}

	if *httpAddr != "" {
		_, addr, err := obs.ServeDebug(*httpAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "deucebench:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "deucebench: expvar/pprof on http://%s/debug/\n", addr)
	}

	rc := exp.RunConfig{
		Writebacks: *writebacks,
		Lines:      *lines,
		Warmup:     *warmup,
		Seed:       *seed,
	}
	var tracer *span.Tracer
	if *spansDir != "" {
		tracer = span.New()
		rc.Spans = tracer
	}

	// Grid cells are announced incrementally (each experiment adds its own
	// sweep), so the total firms up as the suite proceeds.
	var stopWatch func()
	if *progress {
		rc.Progress = obs.NewProgress(0)
		stopWatch = rc.Progress.Watch(2*time.Second, func(s obs.ProgressSnapshot) {
			fmt.Fprintf(os.Stderr, "deucebench: cells %s\n", s)
		})
	}

	var meta *obs.RunMeta
	if *outDir != "" {
		meta = obs.NewRunMeta("deucebench", os.Args[1:])
		meta.Config = map[string]interface{}{
			"experiment": *experiment, "writebacks": *writebacks,
			"lines": *lines, "warmup": *warmup, "seed": *seed, "format": *format,
		}
	}

	fail := func(id string, err error) {
		if stopWatch != nil {
			stopWatch()
		}
		if id != "" {
			fmt.Fprintf(os.Stderr, "deucebench: %s: %v\n", id, err)
		} else {
			fmt.Fprintln(os.Stderr, "deucebench:", err)
		}
		os.Exit(1)
	}

	// Suite-level metrics: grid sweeps clear the per-run Metrics hook (it
	// is single-writer), so deucebench records what the suite itself
	// observes — per-experiment wall time and the run count — for the
	// regression ledger to trend across commits.
	var reg *obs.Registry
	if *metricsOut != "" {
		reg = obs.NewRegistry()
	}

	run := func(e exp.Experiment) error {
		start := time.Now()
		t, err := e.Run(rc)
		if err != nil {
			return err
		}
		if reg != nil {
			reg.Counter("experiments_run").Inc()
			reg.Gauge("duration_ms/" + e.ID).Set(float64(time.Since(start).Milliseconds()))
		}
		var body string
		switch *format {
		case "csv":
			body = t.CSV()
			fmt.Print(body)
			fmt.Println()
		case "text":
			body = t.Render()
			fmt.Println(body)
			fmt.Printf("  [%s in %v]\n\n", e.ID, time.Since(start).Round(time.Millisecond))
		default:
			return fmt.Errorf("unknown format %q", *format)
		}
		if meta != nil {
			ext := ".txt"
			if *format == "csv" {
				ext = ".csv"
			}
			path := filepath.Join(*outDir, e.ID+ext)
			if err := os.MkdirAll(*outDir, 0o755); err != nil {
				return err
			}
			if err := os.WriteFile(path, []byte(body+"\n"), 0o644); err != nil {
				return err
			}
			meta.AddOutput(path)
		}
		return nil
	}

	runSuite := func(es []exp.Experiment) {
		for _, e := range es {
			if err := run(e); err != nil {
				fail(e.ID, err)
			}
		}
	}

	switch *experiment {
	case "all":
		runSuite(exp.Experiments())
	case "ablations":
		runSuite(exp.Ablations())
	case "extensions":
		runSuite(exp.Extensions())
	default:
		e, err := exp.ByID(*experiment)
		if err != nil {
			fail("", err)
		}
		if err := run(e); err != nil {
			fail(e.ID, err)
		}
	}

	if stopWatch != nil {
		stopWatch()
	}
	if tracer != nil {
		if err := writeSpanOutputs(*spansDir, tracer, meta); err != nil {
			fail("", err)
		}
	}
	if reg != nil {
		// Fold in the process-wide reuse aggregates: grid sweeps clear the
		// per-run Metrics hook, so these totals are the only place the
		// sweeps' cache behaviour surfaces.
		exp.RecordReuseMetrics(reg)
		if err := reg.Snapshot().WriteJSONFile(*metricsOut); err != nil {
			fail("", err)
		}
		if meta != nil {
			meta.AddOutput(*metricsOut)
		}
		fmt.Fprintf(os.Stderr, "deucebench: wrote %s\n", *metricsOut)
	}
	if meta != nil {
		path := filepath.Join(*outDir, "runmeta.json")
		if err := meta.WriteFile(path); err != nil {
			fail("", err)
		}
		fmt.Fprintf(os.Stderr, "deucebench: wrote %s\n", path)
	}
}

// writeSpanOutputs snapshots the tracer and writes the suite's span
// artifacts — the Chrome trace-event timeline and the per-name
// self-profile — into dir, registering both with the run manifest.
func writeSpanOutputs(dir string, tracer *span.Tracer, meta *obs.RunMeta) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tree := tracer.Snapshot()
	tracePath := filepath.Join(dir, "chrome-trace.json")
	tf, err := os.Create(tracePath)
	if err != nil {
		return err
	}
	if err := tree.WriteChromeTrace(tf); err != nil {
		tf.Close()
		return err
	}
	if err := tf.Close(); err != nil {
		return err
	}
	profPath := filepath.Join(dir, "self-profile.json")
	pf, err := os.Create(profPath)
	if err != nil {
		return err
	}
	if err := tree.Profile().WriteJSON(pf); err != nil {
		pf.Close()
		return err
	}
	if err := pf.Close(); err != nil {
		return err
	}
	if meta != nil {
		meta.AddOutput(tracePath)
		meta.AddOutput(profPath)
	}
	fmt.Fprintf(os.Stderr, "deucebench: %d spans covering %s; wrote %s and %s\n",
		tree.Spans, span.FormatNs(tree.WallNs()), tracePath, profPath)
	return nil
}
