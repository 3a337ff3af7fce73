package exp

import (
	"testing"

	"deuce/internal/core"
	"deuce/internal/obs"
	"deuce/internal/workload"
)

// A single RunFlips with every observability hook attached must produce a
// trace covering exactly the measured window, periodic heatmap rows plus a
// final one, and per-writeback metric histograms.
func TestRunFlipsObservability(t *testing.T) {
	prof, err := workload.ByName("libq")
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTrace(4096, 1)
	hm := obs.NewHeatmap()
	reg := obs.NewRegistry()
	rc := RunConfig{
		Writebacks:   250,
		Lines:        64,
		Seed:         1,
		Trace:        tr,
		Heatmap:      hm,
		HeatmapEvery: 100,
		Metrics:      reg,
	}
	res, err := RunFlips(prof, core.KindDeuce, core.Params{}, rc, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Writes != 250 {
		t.Fatalf("measured %d writes, want 250", res.Writes)
	}
	// Unsampled trace over the measured window only: warmup events are
	// dropped at the stats-reset boundary.
	if tr.Seen() != 250 || tr.Len() != 250 {
		t.Fatalf("trace seen=%d len=%d, want 250/250", tr.Seen(), tr.Len())
	}
	// Rows at writeback 100, 200 and the final row at 250.
	if hm.Rows() != 3 {
		t.Fatalf("heatmap rows = %d, want 3", hm.Rows())
	}
	if len(hm.Last()) == 0 {
		t.Fatal("heatmap snapshot has no lines")
	}
	snap := reg.Snapshot()
	for _, name := range []string{"write_slots", "write_flips"} {
		h, ok := snap.Hists[name]
		if !ok {
			t.Fatalf("histogram %q missing from registry", name)
		}
		var n uint64
		for _, c := range h.Counts {
			n += c
		}
		if n != 250 || h.N != 250 {
			t.Fatalf("histogram %q holds %d observations (N=%d), want 250", name, n, h.N)
		}
	}
}

// Heatmap rows must not duplicate the final mark when the writeback count
// is an exact multiple of the snapshot period.
func TestRunFlipsHeatmapExactMultiple(t *testing.T) {
	prof, err := workload.ByName("libq")
	if err != nil {
		t.Fatal(err)
	}
	hm := obs.NewHeatmap()
	rc := RunConfig{Writebacks: 200, Lines: 64, Seed: 1, Heatmap: hm, HeatmapEvery: 100}
	if _, err := RunFlips(prof, core.KindDeuce, core.Params{}, rc, false); err != nil {
		t.Fatal(err)
	}
	if hm.Rows() != 2 {
		t.Fatalf("heatmap rows = %d, want 2 (100, 200 — no duplicate final row)", hm.Rows())
	}
}

// A grid of cells run through the cell executor reports per-cell
// progress through the pool and drops the single-writer hooks (sharing a
// Trace across concurrent cells would race).
func TestRunGridProgress(t *testing.T) {
	tr := obs.NewTrace(64, 1)
	prog := obs.NewProgress(0)
	rc := RunConfig{Writebacks: 50, Lines: 32, Seed: 1, Trace: tr, Progress: prog}
	var specs []cellSpec
	for _, name := range []string{"libq", "mcf"} {
		for _, kind := range []core.Kind{core.KindDeuce, core.KindEncrDCW} {
			specs = append(specs, cellSpec{mode: "flip", prof: mustProfile(name), kind: kind, rc: rc})
		}
	}
	res, err := runCells(rc, specs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if r.flip.Workload != specs[i].prof.Name || r.flip.Writes != 50 {
			t.Errorf("result %d is %s/%d writes, want %s/50", i, r.flip.Workload, r.flip.Writes, specs[i].prof.Name)
		}
	}
	s := prog.Snapshot()
	if s.Total != 4 || s.Done != 4 {
		t.Fatalf("progress %d/%d, want 4/4", s.Done, s.Total)
	}
	if tr.Seen() != 0 {
		t.Fatalf("cell executor leaked %d events into a shared trace", tr.Seen())
	}
}
