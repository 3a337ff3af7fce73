package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// benchSpec is BENCHMARK.json: the workloads and metrics the benchmark
// defines, with each end-to-end metric's regression bound.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// loadSpec reads BENCHMARK.json from the repository root, which is the
// working directory under run.sh and the parent of bench/ otherwise.
func loadSpec() (*benchSpec, error) {
	path := "BENCHMARK.json"
	b, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		path = filepath.Join("..", path)
		b, err = os.ReadFile(path)
	}
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

func loadResult(path string) (*resultDoc, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d resultDoc
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

// compareFiles prints one row per workload × end-to-end metric and exits
// non-zero when any metric got worse.
func compareFiles(w io.Writer, basePath, newPath string) int {
	spec, err := loadSpec()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	base, err := loadResult(basePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	next, err := loadResult(newPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	fmt.Fprintf(w, "%-13s %-16s %-34s %-34s %-7s %s\n", "workload", "metric", "base value [q1, q3]", "new value [q1, q3]", "change", "verdict")
	worse := 0
	var names []string
	for name := range base.Workloads {
		if next.Workloads[name] != nil {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		for _, m := range spec.EndToEnd {
			b, okB := base.Workloads[name].Metrics[m.Name]
			n, okN := next.Workloads[name].Metrics[m.Name]
			if !okB || !okN || m.Bound == nil {
				continue
			}
			v, change := verdict(b, n, m.Better, *m.Bound)
			if v == "worse" {
				worse++
			}
			fmt.Fprintf(w, "%-13s %-16s %-34s %-34s %+6.1f%% %s\n", name, m.Name,
				fmt.Sprintf("%.6g [%.6g, %.6g]", b.Median, b.Q1, b.Q3),
				fmt.Sprintf("%.6g [%.6g, %.6g]", n.Median, n.Q1, n.Q3),
				100*change, v)
		}
	}
	if worse > 0 {
		fmt.Fprintf(w, "%d metric(s) worse than their bound\n", worse)
		return 1
	}
	return 0
}

// verdict judges new against base for a metric whose better direction and
// bound BENCHMARK.json fixes. change is the relative change of the median,
// positive when it got worse. A side whose quartile spread exceeds the
// bound leaves the metric unresolved, unless both sides have at least
// three runs and every new run reads better than every base run.
func verdict(base, next aggregated, better string, bound float64) (string, float64) {
	sign := 1.0
	if better == "higher" {
		sign = -1
	}
	change := sign * (next.Median - base.Median) / base.Median
	allBetter := len(base.Values) >= 3 && len(next.Values) >= 3
	for _, nv := range next.Values {
		for _, bv := range base.Values {
			if sign*(nv-bv) >= 0 {
				allBetter = false
			}
		}
	}
	spread := func(a aggregated) float64 { return (a.Q3 - a.Q1) / a.Median }
	switch {
	case allBetter && change < 0:
		return "better", change
	case spread(base) > bound || spread(next) > bound:
		return "unresolved", change
	case change > bound:
		return "worse", change
	case change < -bound:
		return "better", change
	}
	return "same", change
}
