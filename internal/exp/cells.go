package exp

import (
	"fmt"
	"sync/atomic"

	"deuce/internal/core"
	"deuce/internal/wear"
	"deuce/internal/workload"
)

// cellSpec is one runnable cell: the arguments of a RunFlips, RunPerf or
// RunWear call. Experiments declare their tables as lists of cells, and
// the planner deduplicates those lists across experiments.
type cellSpec struct {
	mode     string // "flip", "flip-pos" (keeps the position profile), "perf", "wear"
	prof     workload.Profile
	kind     core.Kind
	params   core.Params
	wearMode wear.Mode // wear cells run at wearPsi under this leveling mode
	rc       RunConfig
}

// cellResult is what a cell produced: flip for flip cells, perf for perf
// cells, wear for wear cells.
type cellResult struct {
	flip FlipResult
	perf PerfResult
	wear WearResult
}

// streamKey identifies the recorded stream the cell replays: a timed
// stream for a perf cell, a flip stream for a flip or wear cell.
func (c cellSpec) streamKey() string {
	topo := flipTopology(c.rc)
	if c.mode == "perf" {
		topo = perfTopology(c.rc)
	}
	return warmStreamKey(c.prof, c.rc, topo)
}

// run executes the cell, or is served its result by the cell memo.
func (c cellSpec) run() (cellResult, error) {
	var r cellResult
	var err error
	switch c.mode {
	case "flip", "flip-pos":
		r.flip, err = RunFlips(c.prof, c.kind, c.params, c.rc, c.mode == "flip-pos")
	case "perf":
		r.perf, err = RunPerf(c.prof, c.kind, c.params, c.rc)
	case "wear":
		r.wear, err = RunWear(c.prof, c.kind, c.params, c.wearMode, wearPsi, c.rc)
	default:
		err = fmt.Errorf("exp: unknown cell mode %q", c.mode)
	}
	return r, err
}

// key returns the cell's memo key; ok is false for params without a
// canonical key (such cells cannot be planned: they run inside the table).
func (c cellSpec) key() (string, bool) {
	pk, ok := paramsKey(c.params)
	if !ok {
		return "", false
	}
	switch c.mode {
	case "flip", "flip-pos":
		// Both modes share one memo entry (the memoized run always
		// retains positions), hence one key.
		return flipCellKey(c.prof, c.kind, pk, c.rc), true
	case "perf":
		return perfCellKey(c.prof, c.kind, pk, c.rc), true
	case "wear":
		return wearCellKey(c.prof, c.kind, pk, c.wearMode, wearPsi, c.rc), true
	}
	return "", false
}

// label renders the cell for dry-run output.
func (c cellSpec) label() string {
	switch c.mode {
	case "wear":
		return fmt.Sprintf("wear %s/%s/%v", c.prof.Name, c.kind, c.wearMode)
	case "perf":
		return fmt.Sprintf("perf %s/%s", c.prof.Name, c.kind)
	default:
		return fmt.Sprintf("flip %s/%s", c.prof.Name, c.kind)
	}
}

// runCells is the package's one cell executor: it runs specs on the
// work-stealing cell pool and returns their results in spec order. Every
// table runs its cells through it, and so does Plan.ExecuteCells; a cell
// the memo already holds is served at once.
//
// Cells run under rc's Progress, Spans and SpanParent, which are atomic
// and cross the pool. Trace, Heatmap and Metrics are single-writer objects
// describing one run, so cells run without them.
//
// The cells of one recorded stream run back to back, and the stream leaves
// the memo when its last cell is done: from then on the memo serves the
// cells' results, and holding every recording at once would double a
// gate's RSS. A later cell of the stream records it again, bit-identically.
func runCells(rc RunConfig, specs []cellSpec) ([]cellResult, error) {
	var streams []string         // stream keys, in order of first use
	var order []int              // spec indices, grouped by stream
	stream := map[string][]int{} // each stream's spec indices
	for i, c := range specs {
		sk := c.streamKey()
		if _, ok := stream[sk]; !ok {
			streams = append(streams, sk)
		}
		stream[sk] = append(stream[sk], i)
	}
	group := make([]int, len(specs)) // each spec's index into streams
	left := make([]atomic.Int64, len(streams))
	for g, sk := range streams {
		left[g].Store(int64(len(stream[sk])))
		for _, i := range stream[sk] {
			group[i] = g
			order = append(order, i)
		}
	}
	res := make([]cellResult, len(specs))
	err := forEachCellObserved(len(order), rc.Progress, func(k int) error {
		i := order[k]
		c := specs[i]
		c.rc.Trace, c.rc.Heatmap, c.rc.Metrics = nil, nil, nil
		c.rc.Progress, c.rc.Spans, c.rc.SpanParent = rc.Progress, rc.Spans, rc.SpanParent
		r, err := c.run()
		if g := group[i]; left[g].Add(-1) == 0 {
			dropStream(streams[g])
		}
		if err != nil {
			return fmt.Errorf("%s: %w", c.label(), err)
		}
		res[i] = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}
