package exp

import (
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"

	"deuce/internal/core"
	"deuce/internal/trace"
	"deuce/internal/workload"
)

// TestPerfCellsSharedAcrossFigures is the cell-count regression test for
// the fig16/fig17 sharing: both figures declare the identical 12-workload
// x 4-scheme timed cells, so running both must execute them exactly once —
// 48 RunPerf calls, not 96. A second pass over either figure must execute
// nothing.
func TestPerfCellsSharedAcrossFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real timed cells")
	}
	ResetCache()
	defer ResetCache()
	rc := RunConfig{Writebacks: 400, Lines: 64, Seed: 1}

	e16, err := ByID("fig16")
	if err != nil {
		t.Fatal(err)
	}
	e17, err := ByID("fig17")
	if err != nil {
		t.Fatal(err)
	}

	before := RunPerfCalls()
	t16, err := e16.Run(rc)
	if err != nil {
		t.Fatal(err)
	}
	wantCells := int64(len(workload.SPEC2006()) * len(perfCols))
	if got := RunPerfCalls() - before; got != wantCells {
		t.Fatalf("fig16 executed %d RunPerf cells, want %d", got, wantCells)
	}

	t17, err := e17.Run(rc)
	if err != nil {
		t.Fatal(err)
	}
	if got := RunPerfCalls() - before; got != wantCells {
		t.Fatalf("fig16+fig17 executed %d RunPerf cells, want %d (fig17 must reuse fig16's cells)", got, wantCells)
	}

	// Re-running either figure at the same scale is served by the cell
	// memo and assembles the same table.
	t16b, err := e16.Run(rc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e17.Run(rc); err != nil {
		t.Fatal(err)
	}
	if got := RunPerfCalls() - before; got != wantCells {
		t.Fatalf("repeat run executed %d RunPerf cells, want %d (cells must be memoized)", got, wantCells)
	}
	if !reflect.DeepEqual(t16, t16b) {
		t.Error("fig16 assembled from memoized cells differs from the live run")
	}
	if t16.ID != "fig16" || t17.ID != "fig17" {
		t.Errorf("table IDs = %q/%q", t16.ID, t17.ID)
	}

	// A different scale is a different set of cells: they must execute
	// for real.
	if _, err := e16.Run(RunConfig{Writebacks: 400, Lines: 64, Seed: 2}); err != nil {
		t.Fatal(err)
	}
	if got := RunPerfCalls() - before; got != 2*wantCells {
		t.Fatalf("changed seed executed %d total cells, want %d (no false memo hits)", got, 2*wantCells)
	}
}

// TestFlipGridCached pins the same reuse for flip cells: a repeated fig15
// run at one scale executes its 48 RunFlips cells once.
func TestFlipGridCached(t *testing.T) {
	ResetCache()
	defer ResetCache()
	rc := RunConfig{Writebacks: 300, Lines: 64, Seed: 1}
	e15, err := ByID("fig15")
	if err != nil {
		t.Fatal(err)
	}
	before := RunFlipsCalls()
	first, err := e15.Run(rc)
	if err != nil {
		t.Fatal(err)
	}
	ran := RunFlipsCalls() - before
	if want := int64(len(workload.SPEC2006()) * 4); ran != want {
		t.Fatalf("fig15 executed %d RunFlips cells, want %d", ran, want)
	}
	again, err := e15.Run(rc)
	if err != nil {
		t.Fatal(err)
	}
	if got := RunFlipsCalls() - before; got != ran {
		t.Fatalf("repeat fig15 executed %d extra cells, want 0", got-ran)
	}
	if !reflect.DeepEqual(first, again) {
		t.Error("fig15 assembled from memoized cells differs from the live run")
	}
}

// TestRunPerfZeroWBPKI: the event budget divides by WBPKI; a degenerate
// profile must produce a descriptive error, not +Inf flowing into an
// undefined float→int conversion.
func TestRunPerfZeroWBPKI(t *testing.T) {
	prof, err := workload.ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	for _, wbpki := range []float64{0, -1} {
		prof.WBPKI = wbpki
		_, err := RunPerf(prof, core.KindEncrDCW, core.Params{}, tinyRC())
		if err == nil {
			t.Fatalf("WBPKI=%g accepted", wbpki)
		}
		if !strings.Contains(err.Error(), "WBPKI") {
			t.Errorf("WBPKI=%g: error %q does not name WBPKI", wbpki, err)
		}
	}
}

// flakySource errors for its first failFor calls, then yields writebacks
// forever, counting successful events handed out.
type flakySource struct {
	calls, failFor, served int
}

func (f *flakySource) Next() (trace.Event, error) {
	f.calls++
	if f.calls <= f.failFor {
		return trace.Event{}, errors.New("transient device error")
	}
	f.served++
	return trace.Event{Kind: trace.Writeback}, nil
}

// TestLimitSourceChargesOnlySuccess: an inner-source error must not
// consume the event budget, or the timed window under-counts the events
// it was sized in.
func TestLimitSourceChargesOnlySuccess(t *testing.T) {
	inner := &flakySource{failFor: 3}
	src := &limitSource{inner: inner, remaining: 5}

	for i := 0; i < 3; i++ {
		if _, err := src.Next(); err == nil {
			t.Fatal("inner error not propagated")
		}
	}
	if src.remaining != 5 {
		t.Fatalf("after 3 inner errors remaining = %d, want 5 (errors must not consume budget)", src.remaining)
	}
	for i := 0; i < 5; i++ {
		if _, err := src.Next(); err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
	}
	if _, err := src.Next(); !errors.Is(err, io.EOF) {
		t.Fatalf("budget exhausted but got %v, want io.EOF", err)
	}
	if inner.served != 5 {
		t.Fatalf("inner served %d events, want exactly the 5-event budget", inner.served)
	}
}
