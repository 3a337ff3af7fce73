package exp

import (
	"fmt"
	"io"

	"deuce/internal/core"
	"deuce/internal/ctrcache"
	"deuce/internal/energy"
	"deuce/internal/obs/span"
	"deuce/internal/stats"
	"deuce/internal/timing"
	"deuce/internal/trace"
	"deuce/internal/workload"
)

// PerfResult is the outcome of one timed run: a full read+writeback event
// stream pushed through a scheme and the memory-controller timing model.
type PerfResult struct {
	Workload string
	Scheme   string
	Timing   timing.Result
	// BitFlips is the total cells programmed during the timed window.
	BitFlips uint64
}

// RunPerf simulates one workload on one scheme with the 8-core machine of
// Table 1 and returns execution time and activity.
//
// Like RunFlips, eligible cells (see cellCacheable) are memoized: the
// result is all-scalar and the timing model is deterministic in the cell
// key, so a cell shared between figures executes once.
func RunPerf(prof workload.Profile, kind core.Kind, params core.Params, rc RunConfig) (PerfResult, error) {
	rc.setDefaults()
	// The event budget below divides by WBPKI; guard here so a
	// hand-built profile fails with the budget's own diagnosis instead
	// of +Inf flowing into an undefined float→int conversion.
	if prof.WBPKI <= 0 {
		return PerfResult{}, fmt.Errorf("exp: workload %q has non-positive WBPKI (%g): cannot size the event budget",
			prof.Name, prof.WBPKI)
	}
	if !cellCacheable(params, rc) {
		return runPerfMeasured(prof, kind, params, rc)
	}
	pk, _ := paramsKey(params)
	key := perfCellKey(prof, kind, pk, rc)
	v, err := cachedDo(rc, "cell/perf", key, func() (interface{}, error) {
		return runPerfMeasured(prof, kind, params, rc)
	})
	if err != nil {
		return PerfResult{}, err
	}
	return v.(PerfResult), nil
}

// runPerfMeasured executes the cell for real: a warmed scheme costs each
// writeback of the timed window inside the sequential timing model.
func runPerfMeasured(prof workload.Profile, kind core.Kind, params core.Params, rc RunConfig) (PerfResult, error) {
	perfRuns.Add(1)
	cell := rc.startSpan("cell/perf", cellAttrs(prof, kind, params, rc, perfCellKey)...)
	defer cell.End()
	rc.SpanParent = cell
	// The workload budget is counted at the source, before any injected
	// counter-fetch traffic, so configurations stay comparable: every run
	// performs the same data requests.
	events := int(float64(rc.Writebacks) * (prof.MPKI + prof.WBPKI) / prof.WBPKI)
	topo := perfTopology(rc)
	c, err := warmedScheme(prof, kind, params, rc, topo, events)
	if err != nil {
		return PerfResult{}, err
	}
	s := c.s
	s.Device().ResetStats()
	warm := s.Device().Stats()
	if rc.Trace != nil {
		rc.Trace.Reset() // the trace covers the timed window only
	}

	coster := timing.SlotCosterFunc(func(line uint64, data []byte) int {
		return s.Write(line, data).Slots
	})
	// The recording may hold more events than this cell's budget (a
	// longer run extended it), so the budget caps the source.
	var src trace.Source = &limitSource{inner: c, remaining: events}
	if rc.CounterCacheBlocks > 0 {
		cc, err := ctrcache.New(ctrcache.Config{Blocks: rc.CounterCacheBlocks})
		if err != nil {
			return PerfResult{}, err
		}
		// Counter region sits above both the writeback and read-miss
		// regions of the generator's address space.
		src = ctrcache.NewFetchSource(src, cc, uint64(2*topo.lines()))
	}
	sim, err := timing.NewSimulator(timing.Config{
		Cores:              perfCPUs,
		MaxConcurrentSlots: budgetSlots,
		WritePausing:       rc.WritePausing,
		ReadLatencyNs:      rc.ReadLatencyNs,
	}, src, coster)
	if err != nil {
		return PerfResult{}, err
	}
	run := rc.startSpan("timing.run")
	res, err := sim.Run(1 << 30) // the source enforces the budget
	run.End()
	if err != nil {
		return PerfResult{}, err
	}
	return PerfResult{
		Workload: prof.Name,
		Scheme:   s.Name(),
		Timing:   res,
		BitFlips: s.Device().Stats().Delta(warm).TotalFlips(),
	}, nil
}

// perfGrid runs the 12 workloads against baseline EncrDCW plus the given
// scheme columns on the work-stealing cell pool. Results: [workload][0] is
// the baseline, [workload][1+i] the i-th column. The baseline is just
// another cell of the flattened grid, so it overlaps with the columns
// instead of gating them.
func perfGrid(cols []cell1, rc RunConfig) ([]workload.Profile, [][]PerfResult, error) {
	ck, cacheable := colsKey(cols)
	if !cacheable {
		return perfGridRun(cols, rc)
	}
	type gridResult struct {
		profs []workload.Profile
		grid  [][]PerfResult
	}
	v, err := cachedDo(rc, "grid/perf", "perfGrid|"+ck+"|"+rc.key(), func() (interface{}, error) {
		grc := rc
		sp := grc.startSpan("grid/perf", span.Str("key", "perfGrid|"+ck+"|"+grc.key()))
		defer sp.End()
		grc.SpanParent = sp
		profs, grid, err := perfGridRun(cols, grc)
		if err != nil {
			return nil, err
		}
		return gridResult{profs, grid}, nil
	})
	if err != nil {
		return nil, nil, err
	}
	r := v.(gridResult)
	return r.profs, r.grid, nil
}

// perfGridRun is the uncached grid execution behind perfGrid.
func perfGridRun(cols []cell1, rc RunConfig) ([]workload.Profile, [][]PerfResult, error) {
	profs := workload.SPEC2006()
	cells := len(cols) + 1
	results := make([][]PerfResult, len(profs))
	for wi := range results {
		results[wi] = make([]PerfResult, cells)
	}
	// Single-run observability objects cannot be shared across cells; see
	// runGrid. Only the atomic Progress and Spans survive the fan-out.
	rc.Trace, rc.Heatmap, rc.Metrics = nil, nil, nil
	err := forEachCellObserved(len(profs)*cells, rc.Progress, func(i int) error {
		wi, ci := i/cells, i%cells
		kind, params, label := core.KindEncrDCW, core.Params{}, "baseline"
		if ci > 0 {
			c := cols[ci-1]
			kind, params, label = c.kind, c.params, string(c.kind)
		}
		r, err := RunPerf(profs[wi], kind, params, rc)
		if err != nil {
			return fmt.Errorf("%s/%s: %w", profs[wi].Name, label, err)
		}
		results[wi][ci] = r
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return profs, results, nil
}

// limitSource caps the number of events drawn from an endless source.
type limitSource struct {
	inner     trace.Source
	remaining int
}

// Next implements trace.Source. The budget is charged only on successful
// events: an inner-source error must not consume budget, or the timed
// window would silently under-count the very events it is sized in.
func (l *limitSource) Next() (trace.Event, error) {
	if l.remaining <= 0 {
		return trace.Event{}, io.EOF
	}
	e, err := l.inner.Next()
	if err == nil {
		l.remaining--
	}
	return e, err
}

var perfCols = []cell1{
	{label: "Encr_FNW", kind: core.KindEncrFNW},
	{label: "DEUCE", kind: core.KindDeuce},
	{label: "NoEncr_FNW", kind: core.KindPlainFNW},
}

// Fig16 reports per-workload speedup over the encrypted baseline.
func Fig16(rc RunConfig) (*Table, error) {
	profs, grid, err := perfGrid(perfCols, rc)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   "Figure 16: speedup over encrypted memory (paper: ~1.0 / 1.27 / 1.40 avg)",
		Note:    "8 cores, 32 banks, 75ns reads, 150ns write slots, 15-slot current budget",
		Columns: []string{"Workload"},
	}
	for _, c := range perfCols {
		t.Columns = append(t.Columns, c.label)
	}
	geo := make([][]float64, len(perfCols))
	for wi, p := range profs {
		base := grid[wi][0].Timing
		cells := make([]interface{}, len(perfCols))
		for ci := range perfCols {
			// Equal event counts per run, so time ratio is speedup.
			sp := base.ExecNs / grid[wi][ci+1].Timing.ExecNs
			cells[ci] = fmt.Sprintf("%.2f", sp)
			geo[ci] = append(geo[ci], sp)
		}
		t.AddRow(p.Name, cells...)
	}
	avg := make([]interface{}, len(perfCols))
	for ci := range perfCols {
		g := stats.GeoMean(geo[ci])
		avg[ci] = fmt.Sprintf("%.2f", g)
		t.SetValue("speedup", perfCols[ci].label, g)
	}
	t.AddRow("GEOMEAN", avg...)
	return t, nil
}

// Fig17 reports speedup, memory energy, memory power and system EDP,
// normalized to the encrypted baseline and aggregated over workloads.
func Fig17(rc RunConfig) (*Table, error) {
	profs, grid, err := perfGrid(perfCols, rc)
	if err != nil {
		return nil, err
	}
	model := energy.Default()
	t := &Table{
		Title:   "Figure 17: normalized speedup / memory energy / memory power / system EDP",
		Note:    "paper: DEUCE 1.27 / 0.57 / 0.72 / 0.57; Encr_FNW ~1.0 / 0.89 / ~0.89 / 0.96",
		Columns: []string{"Scheme", "Speedup", "Mem Energy", "Mem Power", "System EDP"},
	}
	for ci, c := range perfCols {
		var sp, en, pw, edp []float64
		for wi := range profs {
			base := grid[wi][0]
			r := grid[wi][ci+1]
			baseRep, err := model.Evaluate(energy.Usage{
				BitFlips: base.BitFlips, Reads: base.Timing.Reads, ExecNs: base.Timing.ExecNs,
			})
			if err != nil {
				return nil, err
			}
			rep, err := model.Evaluate(energy.Usage{
				BitFlips: r.BitFlips, Reads: r.Timing.Reads, ExecNs: r.Timing.ExecNs,
			})
			if err != nil {
				return nil, err
			}
			n := energy.Normalize(rep, baseRep)
			sp = append(sp, base.Timing.ExecNs/r.Timing.ExecNs)
			en = append(en, n.MemEnergy)
			pw = append(pw, n.MemPower)
			edp = append(edp, n.EDP)
		}
		// Speedup aggregates as a geometric mean (ratio metric); the
		// energy metrics average arithmetically, as in the paper.
		t.AddRow(c.label,
			fmt.Sprintf("%.2f", stats.GeoMean(sp)),
			fmt.Sprintf("%.2f", stats.Mean(en)),
			fmt.Sprintf("%.2f", stats.Mean(pw)),
			fmt.Sprintf("%.2f", stats.Mean(edp)))
		t.SetValue("speedup", c.label, stats.GeoMean(sp))
		t.SetValue("mem_energy", c.label, stats.Mean(en))
		t.SetValue("mem_power", c.label, stats.Mean(pw))
		t.SetValue("edp", c.label, stats.Mean(edp))
	}
	return t, nil
}

// budgetSlots is the global write-current budget used by the performance
// experiments, calibrated against Figure 16 (see EXPERIMENTS.md).
const budgetSlots = 15

// perfCPUs is the simulated core count of Table 1's machine.
const perfCPUs = 8
