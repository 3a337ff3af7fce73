package span

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// update regenerates the golden files: go test ./internal/obs/span -update
var update = flag.Bool("update", false, "rewrite golden files")

// scriptedTracer returns a tracer whose clock advances exactly 1ms on every
// read, so span start/duration values are a pure function of call order.
func scriptedTracer() *Tracer {
	tr := New()
	var ns int64
	tr.nowFn = func() int64 { ns += int64(time.Millisecond); return ns }
	return tr
}

// buildFixtureTree records a small gate-shaped trace with deterministic
// times: a root with two phases, two cells (one annotated), and one
// synthetic Record span.
func buildFixtureTree(t *testing.T) *Tree {
	t.Helper()
	tr := scriptedTracer()
	root := tr.Start(nil, "fidelity.check", Str("experiments", "2")) // start 1ms
	build := tr.Start(root, "plan.build")                            // start 2ms
	build.End()                                                      // dur 1ms
	exec := tr.Start(root, "plan.execute")                           // start 4ms
	c1 := tr.Start(exec, "cell/flip", Str("key", "flip|mcf|deuce"))  // start 5ms
	c1.Annotate(Str("cache", "miss"), Int("writebacks", 6000))
	c1.End()                                                        // dur 1ms
	c2 := tr.Start(exec, "cell/flip", Str("key", "flip|mcf|invmm")) // start 7ms
	c2.End()                                                        // dur 1ms
	tr.Record(exec, "timing.shard", tr.epoch.Add(5*time.Millisecond), 2*time.Millisecond, Int("shard", 0))
	exec.End() // dur 5ms
	root.End() // dur 9ms
	// An abandoned span must be dropped, not exported.
	_ = tr.Start(root, "speculative-cache-hit")
	tree := tr.Snapshot()
	if tree.Spans != 6 {
		t.Fatalf("fixture tree has %d spans, want 6 (abandoned span must be dropped)", tree.Spans)
	}
	return tree
}

// checkGolden compares got against testdata/<name>, rewriting it under
// -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden file missing (run with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden file:\n got: %s\nwant: %s", name, got, want)
	}
}

func TestChromeTraceGolden(t *testing.T) {
	tree := buildFixtureTree(t)
	var buf bytes.Buffer
	if err := tree.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	// Whatever the golden says, the export must be valid JSON of the
	// Chrome trace-event shape.
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Ts   int64  `json:"ts"`
			Dur  int64  `json:"dur"`
			Tid  int    `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) != 6 {
		t.Fatalf("chrome trace has %d events, want 6", len(doc.TraceEvents))
	}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" || ev.Dur < 1 {
			t.Errorf("event %q: ph=%q dur=%d, want complete events with positive durations", ev.Name, ev.Ph, ev.Dur)
		}
	}
	checkGolden(t, "chrome_trace.json", buf.Bytes())
}

func TestSelfProfileGolden(t *testing.T) {
	tree := buildFixtureTree(t)
	var buf bytes.Buffer
	if err := tree.Profile().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Profile
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("self-profile does not round-trip: %v", err)
	}
	if e := back.Lookup("cell/flip"); e.Count != 2 || e.TotalNs != 2*int64(time.Millisecond) {
		t.Errorf("cell/flip aggregate = %+v, want count 2, total 2ms", e)
	}
	checkGolden(t, "self_profile.json", buf.Bytes())
}

func TestTreeShape(t *testing.T) {
	tree := buildFixtureTree(t)
	if len(tree.Roots) != 1 {
		t.Fatalf("got %d roots, want 1", len(tree.Roots))
	}
	root := tree.Roots[0]
	if root.Name != "fidelity.check" || len(root.Children) != 2 {
		t.Fatalf("root = %s with %d children, want fidelity.check with 2", root.Name, len(root.Children))
	}
	exec := root.Children[1]
	if exec.Name != "plan.execute" || len(exec.Children) != 3 {
		t.Fatalf("second phase = %s with %d children, want plan.execute with 3", exec.Name, len(exec.Children))
	}
	if got := exec.Children[0].Note("cache"); got != "miss" {
		t.Errorf("first cell note cache=%q, want miss", got)
	}
	// Self time: exec is 5ms with 4ms of children.
	if self := exec.SelfNs(); self != int64(time.Millisecond) {
		t.Errorf("plan.execute self = %d, want 1ms", self)
	}
	if wall := tree.WallNs(); wall != 9*int64(time.Millisecond) {
		t.Errorf("wall = %d, want 9ms", wall)
	}
	keys := tree.MaxDurByAttr("key")
	if len(keys) != 2 || keys["flip|mcf|deuce"] != int64(time.Millisecond) {
		t.Errorf("MaxDurByAttr(key) = %v, want two 1ms cells", keys)
	}
}

func TestTreeCriticalPath(t *testing.T) {
	tree := buildFixtureTree(t)
	path := tree.CriticalPath()
	var names []string
	for _, n := range path {
		names = append(names, n.Name)
	}
	want := []string{"fidelity.check", "plan.execute", "cell/flip"}
	if fmt.Sprint(names) != fmt.Sprint(want) {
		t.Errorf("critical path = %v, want %v", names, want)
	}
	// The gating cell is the late-ending one.
	if got := path[2].Attr("key"); got != "flip|mcf|invmm" {
		t.Errorf("critical cell key = %q, want the later cell flip|mcf|invmm", got)
	}
}

// TestStructureDeterministic ends spans from racing goroutines in random
// order twice and requires the structural digest to be identical: structure
// must depend only on names and identity attrs, never on scheduling.
func TestStructureDeterministic(t *testing.T) {
	build := func() string {
		tr := New()
		root := tr.Start(nil, "root")
		var wg sync.WaitGroup
		for i := 0; i < 32; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				sp := tr.Start(root, "cell", Str("key", fmt.Sprintf("k%02d", i)))
				sp.Annotate(Int("schedule_dependent", int64(i*i)))
				child := tr.Start(sp, "warmup")
				child.End()
				sp.End()
			}(i)
		}
		wg.Wait()
		root.End()
		return tr.Snapshot().Structure()
	}
	a := build()
	b := build()
	if a != b {
		t.Errorf("structure differs across runs:\n%s\nvs\n%s", a, b)
	}
	if want := "cell{key=k00}(warmup)"; !strings.Contains(a, want) {
		t.Errorf("structure %q does not contain %q", a, want)
	}
}

func TestNilSafety(t *testing.T) {
	var tr *Tracer
	sp := tr.Start(nil, "x", Str("a", "b"))
	if sp != nil {
		t.Fatal("nil tracer must start nil spans")
	}
	sp.Annotate(Int("n", 1)) // must not panic
	sp.End()                 // must not panic
	tr.Record(nil, "y", time.Now(), time.Second)
	if tr.Count() != 0 {
		t.Errorf("nil tracer count = %d", tr.Count())
	}
	if tree := tr.Snapshot(); tree.Spans != 0 || len(tree.Roots) != 0 {
		t.Errorf("nil tracer snapshot = %+v, want empty", tree)
	}
}

func TestFormatNs(t *testing.T) {
	cases := map[int64]string{
		3:             "3ns",
		4_200:         "4µs",
		83_000_000:    "83.0ms",
		1_240_000_000: "1.24s",
	}
	for ns, want := range cases {
		if got := FormatNs(ns); got != want {
			t.Errorf("FormatNs(%d) = %q, want %q", ns, got, want)
		}
	}
}
