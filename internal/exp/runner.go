package exp

import (
	"errors"
	"fmt"
	"io"
	"slices"

	"deuce/internal/bitutil"
	"deuce/internal/core"
	"deuce/internal/obs"
	"deuce/internal/obs/span"
	"deuce/internal/pcmdev"
	"deuce/internal/trace"
	"deuce/internal/wear"
	"deuce/internal/workload"
)

// RunConfig sizes experiment runs. The defaults trade a few seconds of CPU
// per experiment for statistics stable to well under a percentage point.
type RunConfig struct {
	// Writebacks is the number of measured writebacks per workload;
	// 0 means 30000.
	Writebacks int
	// Warmup is the number of writebacks before statistics reset;
	// 0 means 2x the working set so every hot line is initialized and
	// DEUCE epochs are in steady state.
	Warmup int
	// Lines is the per-CPU working set in lines; 0 means 2048.
	Lines int
	// Seed makes runs deterministic.
	Seed int64
	// WritePausing forwards to timing.Config for performance runs.
	WritePausing bool
	// ReadLatencyNs overrides the PCM read latency in performance runs
	// (0 = the 75ns default). The OTP-latency ablation uses it to model
	// serialized decryption on the read path (§2.3).
	ReadLatencyNs float64
	// CounterCacheBlocks, when non-zero, models the controller's counter
	// cache in performance runs: requests whose counter block misses pay
	// an extra memory read (see internal/ctrcache). 0 models an ideal
	// (always-hit) counter store, the default the paper assumes.
	CounterCacheBlocks int
	// Observability hooks. Trace, Heatmap and Metrics follow the
	// single-writer contract (one run, one goroutine), so the cell
	// executor clears them before fanning out — they describe a single
	// run, not a sweep. Progress and Spans are atomic and cross the worker
	// pool. All are optional; nil disables the hook at the cost of at most
	// one branch per writeback.

	// Trace receives one WriteEvent per measured writeback (sampled at
	// the trace's configured rate). Forwarded into core.Params.Trace
	// after warmup so warmup writes do not pollute the event stream.
	Trace *obs.Trace
	// Heatmap receives a per-line write-count snapshot every HeatmapEvery
	// measured writebacks, plus one final row. HeatmapEvery of 0 with a
	// non-nil Heatmap means a single snapshot at the end of the run.
	Heatmap      *obs.Heatmap
	HeatmapEvery int
	// Progress is announced each cell list's length and ticked once per
	// completed cell by the cell executor.
	Progress *obs.Progress
	// Metrics, when non-nil, records per-writeback slot and flip
	// histograms ("write_slots", "write_flips") over the measured window.
	Metrics *obs.Registry
	// Spans, when non-nil, collects a hierarchical wall-clock span per
	// cell, warmup, table and cache hit. Like Progress it is
	// atomic-safe and crosses the worker pool, so sweeps keep it when
	// they clear the single-writer hooks; like every hook it never enters
	// a cache key — spans observe time, which the determinism contract
	// puts outside measured results.
	Spans *span.Tracer
	// SpanParent is the span under which this run's spans nest; nil roots
	// them at the tracer. Runners re-point it as they descend (table →
	// cell → warmup).
	SpanParent *span.Span
}

// startSpan opens a span for this run under the run's current parent.
// Nil-safe: with no tracer it returns a nil span and every downstream
// method is a no-op.
func (rc *RunConfig) startSpan(name string, attrs ...span.Attr) *span.Span {
	return rc.Spans.Start(rc.SpanParent, name, attrs...)
}

func (rc *RunConfig) setDefaults() {
	if rc.Writebacks == 0 {
		rc.Writebacks = 30000
	}
	if rc.Lines == 0 {
		rc.Lines = 2048
	}
	if rc.Warmup == 0 {
		rc.Warmup = 2 * rc.Lines
	}
}

// FlipResult is the outcome of replaying one workload against one scheme.
type FlipResult struct {
	// Workload and Scheme identify the cell.
	Workload string
	Scheme   string
	// FlipFrac is the paper's figure of merit: mean fraction of the
	// line's cells (data + scheme metadata) programmed per writeback.
	FlipFrac float64
	// DataFlipFrac excludes metadata cells from the numerator — the
	// alternative accounting some follow-up papers use; the metadata
	// ablation compares the two.
	DataFlipFrac float64
	// SlotAvg is the mean 128-bit write slots consumed per writeback
	// (Figure 15).
	SlotAvg float64
	// Writes is the number of measured writebacks.
	Writes uint64
	// PositionWrites is the per-bit-position program profile over the
	// measured window (Figures 12/14); nil unless requested.
	PositionWrites []uint64
}

// RunFlips replays a synthetic workload against a freshly constructed
// scheme and reports flip statistics. keepPositions retains the per-bit
// wear profile (costs a copy).
//
// The result is memoized (see memoCell): several experiments share
// identical (workload, scheme, params, config) cells, and the second
// consumer is served the recorded result instead of re-running. The
// memoized run always retains positions; the flag only controls what the
// caller receives.
func RunFlips(prof workload.Profile, kind core.Kind, params core.Params, rc RunConfig, keepPositions bool) (FlipResult, error) {
	rc.setDefaults()
	r, err := memoCell(rc, params, "cell/flip",
		func(pk string) string { return flipCellKey(prof, kind, pk, rc) },
		func() (FlipResult, error) { return runFlipsMeasured(prof, kind, params, rc) })
	if err != nil {
		return FlipResult{}, err
	}
	if keepPositions {
		// Hand out a copy so callers cannot mutate the memoized profile.
		r.PositionWrites = slices.Clone(r.PositionWrites)
	} else {
		r.PositionWrites = nil
	}
	return r, nil
}

// runFlipsMeasured executes a flip run for real: a fresh scheme warmed
// from the recorded stream, then the measured window replayed from it.
func runFlipsMeasured(prof workload.Profile, kind core.Kind, params core.Params, rc RunConfig) (FlipResult, error) {
	flipRuns.Add(1)
	sp := rc.startSpan("cell/flip", cellAttrs(prof, kind, params, rc, flipCellKey)...)
	defer sp.End()
	rc.SpanParent = sp
	c, err := warmedScheme(prof, kind, params, rc, flipTopology(rc), rc.Writebacks)
	if err != nil {
		return FlipResult{}, err
	}
	s := c.s
	// ResetStats carves the measured window for the per-position wear
	// profile; warm+Delta does the same for the scalar stats and keeps the
	// accounting symmetric even if an array wrapper declines to reset.
	s.Device().ResetStats()
	warm := s.Device().Stats()
	if rc.Trace != nil {
		rc.Trace.Reset() // drop warmup events: the trace covers the measured window
	}
	var hSlots, hFlips *obs.Histogram
	if rc.Metrics != nil {
		hSlots = rc.Metrics.Histogram("write_slots", []uint64{0, 1, 2, 3})
		hFlips = rc.Metrics.Histogram("write_flips", []uint64{8, 16, 32, 64, 128, 256})
	}
	lastMark := uint64(0)
	for i := 0; i < rc.Writebacks; i++ {
		line, data, _ := c.next()
		wres := s.Write(line, data)
		if hSlots != nil {
			hSlots.Observe(uint64(wres.Slots))
			hFlips.Observe(uint64(wres.TotalFlips()))
		}
		if rc.Heatmap != nil && rc.HeatmapEvery > 0 && (i+1)%rc.HeatmapEvery == 0 {
			lastMark = uint64(i + 1)
			rc.Heatmap.Snapshot(lastMark, s.Device().LineWrites())
		}
	}
	if rc.Heatmap != nil && lastMark != uint64(rc.Writebacks) {
		rc.Heatmap.Snapshot(uint64(rc.Writebacks), s.Device().LineWrites())
	}

	st := s.Device().Stats().Delta(warm)
	// The paper's figure of merit counts metadata flips in the numerator
	// but normalizes by the 512 data bits of the line: FNW on encrypted
	// data comes out at 42.7% (Table 3) only under that convention.
	lineBits := float64(s.Device().Config().LineBits())
	return FlipResult{
		Workload:       prof.Name,
		Scheme:         s.Name(),
		FlipFrac:       st.AvgFlipsPerWrite() / lineBits,
		DataFlipFrac:   float64(st.DataFlips) / float64(st.Writes) / lineBits,
		SlotAvg:        st.AvgSlotsPerWrite(),
		Writes:         st.Writes,
		PositionWrites: s.Device().PositionWrites(),
	}, nil
}

// ReplayFlips drives the writebacks of a recorded trace through a freshly
// constructed scheme and reports flip statistics. The caller provides the
// memory size in lines (a trace does not declare it). A trace carries no
// pre-write contents, so the first writeback observed for each line is
// treated as its initial placement (Install) and is excluded from the
// measured statistics — the same §3.1 convention the synthetic runs use.
func ReplayFlips(src trace.Source, lines int, kind core.Kind, params core.Params) (FlipResult, error) {
	params.Lines = lines
	s, err := core.New(kind, params)
	if err != nil {
		return FlipResult{}, err
	}
	touched := bitutil.NewVector(lines)
	for {
		e, err := src.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return FlipResult{}, err
		}
		if e.Kind != trace.Writeback {
			continue
		}
		if e.Line >= uint64(lines) {
			return FlipResult{}, fmt.Errorf("exp: trace writeback to line %d beyond %d-line memory", e.Line, lines)
		}
		if !touched.Get(int(e.Line)) {
			touched.Set(int(e.Line), true)
			s.Install(e.Line, e.Data)
			continue
		}
		s.Write(e.Line, e.Data)
	}
	st := s.Device().Stats()
	if st.Writes == 0 {
		return FlipResult{}, fmt.Errorf("exp: trace contained no writebacks")
	}
	lineBits := float64(s.Device().Config().LineBits())
	return FlipResult{
		Workload:     "trace",
		Scheme:       s.Name(),
		FlipFrac:     st.AvgFlipsPerWrite() / lineBits,
		DataFlipFrac: float64(st.DataFlips) / float64(st.Writes) / lineBits,
		SlotAvg:      st.AvgSlotsPerWrite(),
		Writes:       st.Writes,
	}, nil
}

// WearResult couples a flip run with its lifetime analysis.
type WearResult struct {
	FlipResult
	Profile wear.Profile
}

// RunWear replays a workload against a scheme whose array is wrapped in a
// Start-Gap leveler with the given mode, and analyzes the wear profile.
//
// The wrapped array makes the underlying flip run unmemoizable, so the
// result is memoized here instead, keyed by the pre-wrap params plus the
// leveler configuration.
func RunWear(prof workload.Profile, kind core.Kind, params core.Params, mode wear.Mode, psi int, rc RunConfig) (WearResult, error) {
	rc.setDefaults()
	r, err := memoCell(rc, params, "cell/wear",
		func(pk string) string { return wearCellKey(prof, kind, pk, mode, psi, rc) },
		func() (WearResult, error) { return runWearMeasured(prof, kind, params, mode, psi, rc) })
	if err != nil {
		return WearResult{}, err
	}
	r.PositionWrites = slices.Clone(r.PositionWrites)
	return r, nil
}

// runWearMeasured executes a wear cell for real.
func runWearMeasured(prof workload.Profile, kind core.Kind, params core.Params, mode wear.Mode, psi int, rc RunConfig) (WearResult, error) {
	attrs := []span.Attr{span.Str("workload", prof.Name), span.Str("scheme", string(kind))}
	if pk, ok := paramsKey(params); ok {
		attrs = append(attrs, span.Str("key", wearCellKey(prof, kind, pk, mode, psi, rc)))
	}
	sp := rc.startSpan("cell/wear", attrs...)
	defer sp.End()
	rc.SpanParent = sp
	params.MakeArray = func(cfg pcmdev.Config) (pcmdev.Array, error) {
		// Gap-move copies are excluded from the wear ledger: at the
		// paper's scale they are <1% of programs, but at simulation
		// scale the small psi needed to exercise HWL would make them
		// dominate (see wear.StartGapConfig.FreeGapMoves).
		s, err := wear.NewStartGap(cfg, wear.StartGapConfig{Mode: mode, Psi: psi, FreeGapMoves: true})
		if err != nil {
			return nil, err
		}
		return s.Device(), nil
	}
	res, err := RunFlips(prof, kind, params, rc, true)
	if err != nil {
		return WearResult{}, err
	}
	wp, err := wear.Analyze(res.PositionWrites, res.Writes)
	if err != nil {
		return WearResult{}, err
	}
	return WearResult{FlipResult: res, Profile: wp}, nil
}
