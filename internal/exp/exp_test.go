package exp

import (
	"io"
	"strings"
	"testing"

	"deuce/internal/core"
	"deuce/internal/trace"
	"deuce/internal/wear"
	"deuce/internal/workload"
)

// tinyRC keeps experiment-level tests fast while remaining statistically
// meaningful for ordering assertions.
func tinyRC() RunConfig {
	return RunConfig{Writebacks: 2500, Lines: 256, Seed: 1}
}

func TestTableRender(t *testing.T) {
	tbl := &Table{
		Title:   "Test Table",
		Note:    "a note",
		Columns: []string{"Key", "A", "B"},
	}
	tbl.AddRow("row1", "x", 3.14159)
	tbl.AddRow("row2", 42, uint64(7))
	out := tbl.Render()
	for _, want := range []string{"Test Table", "a note", "row1", "3.142", "42", "Key"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
}

func TestByID(t *testing.T) {
	if _, err := ByID("fig10"); err != nil {
		t.Errorf("fig10 missing: %v", err)
	}
	if _, err := ByID("fig99"); err == nil {
		t.Error("unknown experiment accepted")
	}
	if len(Experiments()) != 12 {
		t.Errorf("Experiments() = %d entries, want 12", len(Experiments()))
	}
	seen := map[string]bool{}
	for _, e := range Experiments() {
		if e.ID == "" || e.Paper == "" || e.table == nil {
			t.Errorf("experiment %+v incomplete", e.ID)
		}
		if seen[e.ID] {
			t.Errorf("duplicate experiment ID %s", e.ID)
		}
		seen[e.ID] = true
	}
}

func TestRunFlipsBasics(t *testing.T) {
	prof, _ := workload.ByName("mcf")
	res, err := RunFlips(prof, core.KindEncrDCW, core.Params{}, tinyRC(), false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Workload != "mcf" || res.Scheme != "Encr_DCW" {
		t.Errorf("labels = %q/%q", res.Workload, res.Scheme)
	}
	// Baseline encryption always lands at 50% regardless of workload.
	if res.FlipFrac < 0.48 || res.FlipFrac > 0.52 {
		t.Errorf("Encr_DCW flip fraction = %.3f, want ~0.50", res.FlipFrac)
	}
	if res.SlotAvg < 3.9 {
		t.Errorf("Encr_DCW slots = %.2f, want ~4", res.SlotAvg)
	}
	if res.PositionWrites != nil {
		t.Error("positions kept without being requested")
	}
}

func TestRunFlipsDeterministic(t *testing.T) {
	prof, _ := workload.ByName("astar")
	a, err := RunFlips(prof, core.KindDeuce, core.Params{}, tinyRC(), false)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunFlips(prof, core.KindDeuce, core.Params{}, tinyRC(), false)
	if err != nil {
		t.Fatal(err)
	}
	if a.FlipFrac != b.FlipFrac {
		t.Errorf("same seed gave %.5f then %.5f", a.FlipFrac, b.FlipFrac)
	}
}

// The core ordering claims of the paper must hold at any reasonable run
// size: DEUCE < Encr_FNW < Encr_DCW, and NoEncr below all of them.
func TestSchemeOrderingInvariant(t *testing.T) {
	prof, _ := workload.ByName("omnetpp")
	frac := func(k core.Kind) float64 {
		r, err := RunFlips(prof, k, core.Params{}, tinyRC(), false)
		if err != nil {
			t.Fatal(err)
		}
		return r.FlipFrac
	}
	noencr := frac(core.KindPlainDCW)
	deuceF := frac(core.KindDeuce)
	encrFNW := frac(core.KindEncrFNW)
	encrDCW := frac(core.KindEncrDCW)
	if !(noencr < deuceF && deuceF < encrFNW && encrFNW < encrDCW) {
		t.Errorf("ordering violated: noencr=%.3f deuce=%.3f encr-fnw=%.3f encr-dcw=%.3f",
			noencr, deuceF, encrFNW, encrDCW)
	}
}

func TestRunWear(t *testing.T) {
	prof, _ := workload.ByName("libq")
	// Enough writes that the Start register wraps the ~544 bit
	// positions at psi=1 with a 16-line array (rounds ≈ writes/17).
	rc := RunConfig{Writebacks: 10000, Lines: 16, Seed: 1}
	res, err := RunWear(prof, core.KindDeuce, core.Params{}, wear.HWL, 1, rc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Profile.Writes == 0 || res.Profile.MaxRate == 0 {
		t.Errorf("empty wear profile: %+v", res.Profile)
	}
	// HWL must flatten libq's extreme skew.
	if res.Profile.Skew() > 3 {
		t.Errorf("HWL skew = %.1f, want near-uniform", res.Profile.Skew())
	}
}

func TestRunPerfBasics(t *testing.T) {
	prof, _ := workload.ByName("xalanc")
	rc := RunConfig{Writebacks: 1500, Lines: 256, Seed: 1}
	base, err := RunPerf(prof, core.KindEncrDCW, core.Params{}, rc)
	if err != nil {
		t.Fatal(err)
	}
	d, err := RunPerf(prof, core.KindDeuce, core.Params{}, rc)
	if err != nil {
		t.Fatal(err)
	}
	if base.Timing.ExecNs <= 0 || base.Timing.Reads == 0 || base.Timing.Writes == 0 {
		t.Fatalf("degenerate baseline run: %+v", base.Timing)
	}
	if d.Timing.ExecNs >= base.Timing.ExecNs {
		t.Errorf("DEUCE (%.0fns) not faster than encrypted baseline (%.0fns)",
			d.Timing.ExecNs, base.Timing.ExecNs)
	}
	if d.BitFlips >= base.BitFlips {
		t.Errorf("DEUCE flips %d not below baseline %d", d.BitFlips, base.BitFlips)
	}
}

// Every experiment must run end to end at tiny scale and produce a
// non-empty table (smoke test for the full harness).
func TestAllExperimentsRun(t *testing.T) {
	rc := RunConfig{Writebacks: 600, Lines: 64, Seed: 1}
	for _, e := range Experiments() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			tbl, err := e.Run(rc)
			if err != nil {
				t.Fatal(err)
			}
			if len(tbl.Rows) == 0 || len(tbl.Columns) == 0 {
				t.Fatalf("experiment %s produced empty table", e.ID)
			}
			if tbl.Render() == "" {
				t.Error("empty render")
			}
		})
	}
}

// Every ablation must also run end to end at tiny scale.
func TestAllAblationsRun(t *testing.T) {
	rc := RunConfig{Writebacks: 400, Lines: 64, Seed: 1}
	for _, e := range Ablations() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			tbl, err := e.Run(rc)
			if err != nil {
				t.Fatal(err)
			}
			if len(tbl.Rows) == 0 {
				t.Fatal("empty table")
			}
		})
	}
}

func TestTableCSV(t *testing.T) {
	tbl := &Table{
		Title:   "T",
		Note:    "n",
		Columns: []string{"Key", "V"},
	}
	tbl.AddRow("a", "42.7%")
	tbl.AddRow("b", "1.27x")
	csv := tbl.CSV()
	for _, want := range []string{"# T", "# n", "Key,V", "a,42.7", "b,1.27"} {
		if !strings.Contains(csv, want) {
			t.Errorf("CSV missing %q:\n%s", want, csv)
		}
	}
	if strings.Contains(csv, "42.7%") || strings.Contains(csv, "1.27x") {
		t.Error("CSV kept unit suffixes")
	}
}

// ReplayFlips must agree with RunFlips when fed the same stream: record a
// generator's writebacks, replay them, and compare.
func TestReplayMatchesDirectRun(t *testing.T) {
	prof, _ := workload.ByName("astar")
	rc := RunConfig{Writebacks: 1500, Lines: 128, Seed: 5}

	direct, err := RunFlips(prof, core.KindDeuce, core.Params{}, rc, false)
	if err != nil {
		t.Fatal(err)
	}

	// Rebuild the identical stream: same generator parameters; warmup
	// writebacks become the replay's install-and-measure prefix, so
	// compare only qualitatively (both must land in the same band).
	gen, _ := workload.New(prof, workload.Config{Seed: rc.Seed, LinesPerCPU: rc.Lines})
	var events []trace.Event
	for i := 0; i < rc.Warmup+rc.Writebacks; i++ {
		line, data := gen.NextWriteback(0)
		events = append(events, trace.Event{Kind: trace.Writeback, Line: line, Data: data})
	}
	replayed, err := ReplayFlips(&sliceEvents{events: events}, gen.Lines(), core.KindDeuce, core.Params{})
	if err != nil {
		t.Fatal(err)
	}
	if diff := replayed.FlipFrac - direct.FlipFrac; diff > 0.05 || diff < -0.05 {
		t.Errorf("replay flip fraction %.3f far from direct %.3f", replayed.FlipFrac, direct.FlipFrac)
	}
}

type sliceEvents struct {
	events []trace.Event
	i      int
}

func (s *sliceEvents) Next() (trace.Event, error) {
	if s.i >= len(s.events) {
		return trace.Event{}, io.EOF
	}
	e := s.events[s.i]
	s.i++
	return e, nil
}
