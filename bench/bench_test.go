package main

import (
	"bytes"
	"encoding/json"
	"math"
	"regexp"
	"strings"
	"testing"
)

// toyScale runs every workload in well under a second, for the tests.
var toyScale = scale{
	setups:      2,
	minSegments: 2,

	regionLines:    64,
	writeSegment:   1000,
	durableRegions: 2,
	durableSegment: 512,
	syncEvery:      64,

	serveLines: 512, serveShards: 8, serveKeys: 128,
	serveSegment:       2000,
	serveTraceSegments: 2,

	gateWritebacks: 1000, gateLines: 64,
	gateExperiments: []string{"fig10", "fig15"},
}

// TestWorkloadsReportEveryMetric runs each workload at toy scale, untraced
// and traced, and checks that the run is correct and its result line holds
// exactly the mode's metrics, each finite and with its unit.
func TestWorkloadsReportEveryMetric(t *testing.T) {
	for _, w := range allWorkloads() {
		for _, trace := range []bool{false, true} {
			r := newRun(w, 7, 0, trace, toyScale, t.TempDir())
			var log bytes.Buffer
			r.log = &log
			if err := w.run(r); err != nil {
				t.Fatalf("%s (trace %t): %v", w.name, trace, err)
			}
			var out bytes.Buffer
			correct, err := r.report(&out)
			if err != nil {
				t.Fatalf("%s (trace %t): %v", w.name, trace, err)
			}
			if !correct {
				t.Errorf("%s (trace %t): incorrect run:\n%s", w.name, trace, log.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res final
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s (trace %t): last line is not the result: %v", w.name, trace, err)
			}
			if res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s (trace %t): attempted %d, failed %d", w.name, trace, res.Attempted, res.Failed)
			}
			table := endToEnd
			if trace {
				table = w.layers
			}
			if len(res.Metrics) != len(table) {
				t.Errorf("%s (trace %t): %d metrics, want %d", w.name, trace, len(res.Metrics), len(table))
			}
			for _, m := range table {
				v, ok := res.Metrics[m.name]
				switch {
				case !ok:
					t.Errorf("%s (trace %t): metric %s missing", w.name, trace, m.name)
				case v.Unit != m.unit:
					t.Errorf("%s (trace %t): %s has unit %q, want %q", w.name, trace, m.name, v.Unit, m.unit)
				case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
					t.Errorf("%s (trace %t): %s = %v", w.name, trace, m.name, v.Value)
				case !trace && v.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", w.name, m.name, v.Value)
				}
			}
		}
	}
}

// TestMetricTablesMatchSpec keeps BENCHMARK.json and this program in step,
// and holds the file to the limits a BENCHMARK.json must keep.
func TestMetricTablesMatchSpec(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(workloads), ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, program runs %s", got, want)
	}
	if len(spec.EndToEnd) < 1 || len(spec.EndToEnd) > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", len(spec.EndToEnd))
	}
	if len(spec.PerLayer) < 1 || len(spec.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", len(spec.PerLayer))
	}
	match := func(kind string, got []specMetric, want []metric) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s metric %d: BENCHMARK.json has %s (%s), the program %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	match("end-to-end", spec.EndToEnd, endToEnd)
	match("per-layer", spec.PerLayer, perLayer)

	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	largest := 0.0
	for i, m := range append(append([]specMetric(nil), spec.EndToEnd...), spec.PerLayer...) {
		if !valid.MatchString(m.Name) || seen[m.Name] {
			t.Errorf("metric name %q is malformed or repeated", m.Name)
		}
		seen[m.Name] = true
		if !unit.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q is malformed", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better is %q", m.Name, m.Better)
		}
		if i < len(spec.EndToEnd) {
			if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
				t.Errorf("end-to-end metric %s: bound must be in (0, 0.25]", m.Name)
			} else {
				largest = math.Max(largest, *m.Bound)
			}
		} else if m.Bound != nil {
			t.Errorf("per-layer metric %s has a bound", m.Name)
		}
	}
	for _, m := range spec.EndToEnd {
		if m.Name == "setup_s" && (m.Unit != "s" || m.Better != "lower" || *m.Bound != largest) {
			t.Errorf("setup_s must be in s, lower is better, with the largest bound")
		}
	}
	if !seen["setup_s"] {
		t.Errorf("setup_s is missing")
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "bench" {
		t.Errorf("paths %v, want [bench]", spec.Paths)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d out of [1, 60]", spec.RunSeconds)
	}
}

// TestQuartilesMatchPython pins the quartile method to Python's
// statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		// Expected values are statistics.quantiles(xs, n=4) and
		// statistics.median(xs).
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{4, 1}, 0.25, 2.5, 4.75},
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
		{[]float64{5}, 5, 5, 5},
	} {
		q1, med, q3 := quartiles(c.xs)
		if q1 != c.q1 || med != c.med || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v, %v; want %v, %v, %v", c.xs, q1, med, q3, c.q1, c.med, c.q3)
		}
	}
}

func TestVerdict(t *testing.T) {
	base := aggregated{Median: 100, Q1: 98, Q3: 102, Values: []float64{98, 100, 102}}
	for _, c := range []struct {
		next   aggregated
		better string
		want   string
	}{
		{aggregated{Median: 101, Q1: 99, Q3: 103, Values: []float64{99, 101, 103}}, "lower", "same"},
		{aggregated{Median: 120, Q1: 118, Q3: 122, Values: []float64{118, 120, 122}}, "lower", "worse"},
		{aggregated{Median: 120, Q1: 118, Q3: 122, Values: []float64{118, 120, 122}}, "higher", "better"},
		{aggregated{Median: 120, Q1: 90, Q3: 140, Values: []float64{90, 120, 140}}, "lower", "unresolved"},
		{aggregated{Median: 80, Q1: 60, Q3: 95, Values: []float64{60, 80, 95}}, "lower", "better"},
	} {
		if got, _ := verdict(base, c.next, c.better, 0.1); got != c.want {
			t.Errorf("verdict(%v, %s) = %s, want %s", c.next.Values, c.better, got, c.want)
		}
	}
}
