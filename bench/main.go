// Command bench is the repository's benchmark: five workloads that together
// cover every layer of the DEUCE stack, each measured end to end in an
// untraced pass and broken down by layer in a separate traced pass.
//
// Run it through run.sh, which builds it from source with every artifact
// under .bench_build/ at the repository root:
//
//	bash bench/run.sh                    # every workload, untraced, each in a fresh process
//	bash bench/run.sh -trace 1           # the traced pass: per-layer metrics
//	bash bench/run.sh -runs 3 -out a.json
//	bash bench/run.sh -compare a.json b.json
//	bash bench/run.sh --workload gate --seed 3 --seconds 10 --trace 0
//
// With -workload the named workload runs in this process, prints every
// metric by name with its unit, and ends its output with one JSON line:
// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
// README.md describes the workloads and what each metric measures.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"deuce"
)

// benchWorkload is one workload: its name, what it runs, and the table its
// traced pass reports.
type benchWorkload struct {
	name   string
	run    func(*run) error
	layers []metric
}

// workloads are the workloads BENCHMARK.json lists, in its order.
var workloads = []benchWorkload{
	{"write-deuce", func(r *run) error { return runWrite(r, deuce.DEUCE) }, perLayer},
	{"write-encr", func(r *run) error { return runWrite(r, deuce.EncrDCW) }, perLayer},
	{"serve-zipf", func(r *run) error { return runServe(r, 1) }, perLayer},
	{"durable-sync", runDurable, perLayer},
}

// unlisted are workloads that run by name and in the all-workloads mode
// but that BENCHMARK.json does not list. Both keep every core busy, and on
// a shared two-core host their times wander across runs by more than the
// largest regression bound the benchmark may set (README.md).
var unlisted = []benchWorkload{
	{"serve-contended", func(r *run) error { return runServe(r, 2) }, perLayer},
	{"gate", runGate, gateLayers},
}

// allWorkloads is every workload this program runs.
func allWorkloads() []benchWorkload {
	return append(append([]benchWorkload(nil), workloads...), unlisted...)
}

// scale sizes every workload.
type scale struct {
	setups      int // set-up repetitions per run; setup_s is their median
	minSegments int // segments every run completes; simulated counts come from these

	regionLines    int // lines per SPEC2006 region (write-*, durable-sync)
	writeSegment   int // writes per segment (write-*)
	durableRegions int
	durableSegment int
	syncEvery      int // durable-sync's flush policy: Sync after every syncEvery-th write

	serveLines, serveShards, serveKeys int
	serveSegment                       int // requests per segment, all clients together
	serveTraceSegments                 int // the traced pass's cap: its op logs grow with every request

	gateWritebacks, gateLines int
	gateExperiments           []string // nil: every expectation
}

// fullScale is what the benchmark measures.
var fullScale = scale{
	setups:      5,
	minSegments: 10,

	regionLines:    1024,
	writeSegment:   25000,
	durableRegions: 16,
	durableSegment: 4096,
	syncEvery:      64,

	serveLines: 4096, serveShards: 8, serveKeys: 1024,
	serveSegment:       20000,
	serveTraceSegments: 40,

	gateWritebacks: 6000, gateLines: 512,
}

// workDir holds the benchmark's scratch files and results, relative to the
// directory it runs in (the repository root, under run.sh).
const workDir = ".bench_build"

func main() {
	runtime.GOMAXPROCS(runtime.NumCPU())
	os.Exit(benchMain(os.Args[1:], os.Stdout))
}

func benchMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "run only this workload, in this process (default: every workload, each in a fresh process)")
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Int("seconds", 15, "measuring time of one workload run, in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced pass (per-layer metrics) instead of the end-to-end one")
	runs := fs.Int("runs", 1, "runs of each workload, alternating their order (all-workloads mode)")
	out := fs.String("out", filepath.Join(workDir, "result.json"), "result file (all-workloads mode)")
	compare := fs.Bool("compare", false, "compare two result files: -compare base.json new.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "bench: -trace is 0 or 1")
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare needs two result files")
			return 2
		}
		return compareFiles(stdout, fs.Arg(0), fs.Arg(1))
	}
	if *name != "" {
		return runOne(stdout, *name, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	}
	return runAll(stdout, *seed, *seconds, *trace, *runs, *out)
}

// runOne runs one workload in this process and reports it.
func runOne(stdout io.Writer, name string, seed int64, seconds time.Duration, trace bool) int {
	var w *benchWorkload
	for _, c := range allWorkloads() {
		if c.name == name {
			w = &c
		}
	}
	if w == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q (want one of %s)\n", name, strings.Join(workloadNames(allWorkloads()), ", "))
		return 2
	}
	tmp := filepath.Join(workDir, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	r := newRun(*w, seed, seconds, trace, fullScale, tmp)
	if err := w.run(r); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
		return 1
	}
	correct, err := r.report(stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if !correct {
		return 1
	}
	return 0
}

func workloadNames(ws []benchWorkload) []string {
	var names []string
	for _, w := range ws {
		names = append(names, w.name)
	}
	return names
}

// resultDoc is the all-workloads mode's result file. It makes no
// performance claim: comparing two of them is -compare's job.
type resultDoc struct {
	Host      host                       `json:"host"`
	Seed      int64                      `json:"seed"`
	Seconds   int                        `json:"seconds"`
	Runs      int                        `json:"runs"`
	Trace     bool                       `json:"trace"`
	Workloads map[string]*workloadResult `json:"workloads"`
	Claim     *string                    `json:"claim"`
}

// workloadResult is every run of one workload and, per metric, the median
// and quartiles of its runs' values. For a single run they are its value
// and the quartiles of its segments.
type workloadResult struct {
	Runs    []detail              `json:"runs"`
	Metrics map[string]aggregated `json:"metrics"`
}

type aggregated struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Values []float64 `json:"values"`
}

// runAll runs every workload runs times, each run in a fresh process of
// this program, and writes the collected results to out.
func runAll(stdout io.Writer, seed int64, seconds, trace, runs int, out string) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	doc := resultDoc{Host: hostStamp(), Seed: seed, Seconds: seconds, Runs: runs, Trace: trace == 1,
		Workloads: make(map[string]*workloadResult)}
	status := 0
	names := workloadNames(allWorkloads())
	for rep := 0; rep < runs; rep++ {
		order := append([]string(nil), names...)
		if rep%2 == 1 {
			for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
				order[i], order[j] = order[j], order[i]
			}
		}
		for _, name := range order {
			d, err := runChild(stdout, exe, name, seed, seconds, trace)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
				status = 1
				if d == nil {
					continue
				}
			}
			wr := doc.Workloads[name]
			if wr == nil {
				wr = &workloadResult{}
				doc.Workloads[name] = wr
			}
			wr.Runs = append(wr.Runs, *d)
		}
	}
	for _, wr := range doc.Workloads {
		wr.Metrics = aggregate(wr.Runs)
	}
	if err := writeJSON(out, doc); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "wrote %s\n", out)
	return status
}

// runChild runs one workload in a fresh process, echoes its metric lines
// and returns its detail record.
func runChild(stdout io.Writer, exe, name string, seed int64, seconds, trace int) (*detail, error) {
	cmd := exec.Command(exe, "-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(trace))
	cmd.Stderr = os.Stderr
	output, runErr := cmd.Output()
	var d *detail
	sc := bufio.NewScanner(bytes.NewReader(output))
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, detailPrefix):
			d = new(detail)
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, detailPrefix)), d); err != nil {
				return nil, fmt.Errorf("reading its result: %w", err)
			}
		case strings.HasPrefix(line, "{"):
		default:
			fmt.Fprintln(stdout, line)
		}
	}
	if runErr != nil {
		return d, runErr
	}
	if d == nil {
		return nil, errors.New("it printed no result")
	}
	return d, nil
}

func aggregate(runs []detail) map[string]aggregated {
	out := make(map[string]aggregated)
	for name := range runs[0].Metrics {
		a := aggregated{Unit: runs[0].Metrics[name].Unit}
		for _, d := range runs {
			a.Values = append(a.Values, d.Metrics[name].Value)
		}
		if len(runs) == 1 {
			s := runs[0].Metrics[name]
			a.Q1, a.Median, a.Q3 = s.Q1, s.Value, s.Q3
		} else {
			a.Q1, a.Median, a.Q3 = quartiles(a.Values)
		}
		out[name] = a
	}
	return out
}

func writeJSON(path string, v interface{}) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
