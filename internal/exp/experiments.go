package exp

import (
	"fmt"
	"sort"

	"deuce/internal/core"
	"deuce/internal/obs/span"
	"deuce/internal/stats"
	"deuce/internal/wear"
	"deuce/internal/workload"
)

// An Experiment regenerates one table or figure from the paper. Most are
// built from cells: cells enumerates the flip, perf and wear cells the
// table needs, and table assembles the table from their results. The
// experiment planner reads the same cells, so a plan and a run cannot
// drift apart.
type Experiment struct {
	// ID is the key used by cmd/deucebench (-experiment fig10).
	ID string
	// Paper describes what the paper reports for this experiment.
	Paper string

	// cells enumerates the experiment's cells at a defaulted RunConfig;
	// nil for an experiment whose table is not built from cells.
	cells func(rc RunConfig) []cellSpec
	// table assembles the table from the results of cells(rc), in order
	// (nil results for an experiment without cells).
	table func(rc RunConfig, res []cellResult) (*Table, error)
}

// Run executes the experiment: its cells run on the cell pool (served
// from the shared cell memo when a plan or another experiment already ran
// them), then the table is assembled and stamped with the experiment's ID,
// so downstream consumers (JSON output, the fidelity gate and its
// recordings) can key on it.
func (e Experiment) Run(rc RunConfig) (*Table, error) {
	rc.setDefaults()
	sp := rc.startSpan("table/"+e.ID, span.Str("id", e.ID), span.Str("key", tableKey(e.ID, rc)))
	defer sp.End()
	rc.SpanParent = sp
	var res []cellResult
	if e.cells != nil {
		var err error
		if res, err = runCells(rc, e.cells(rc)); err != nil {
			return nil, err
		}
	}
	t, err := e.table(rc, res)
	if t != nil {
		t.ID = e.ID
	}
	return t, err
}

// tableKey identifies an experiment's table at one scale: the key of its
// plan node and of its table span.
func tableKey(id string, rc RunConfig) string { return "table|" + id + "|" + rc.key() }

// plain adapts a table function that computes its table itself, for an
// experiment without cells.
func plain(f func(RunConfig) (*Table, error)) func(RunConfig, []cellResult) (*Table, error) {
	return func(rc RunConfig, _ []cellResult) (*Table, error) { return f(rc) }
}

// Experiments returns every reproduction experiment, in paper order.
func Experiments() []Experiment {
	return []Experiment{
		{ID: "table2", Paper: "Table 2: benchmark characteristics", table: plain(Table2)},
		flipSweep("fig5", "Figure 5: bits modified per write, NoEncr vs Encr under DCW and FNW",
			"Figure 5: average modified bits per write (paper: 12.2% / 10.5% / 50% / 43%)",
			"fraction of line cells incl. scheme metadata programmed per writeback", fig5Cols),
		flipSweep("fig8", "Figure 8: DEUCE sensitivity to word size (epoch 32)",
			"Figure 8: DEUCE bit flips vs tracking word size (paper: 21.4% / 23.7% / 26.8% / 32.2%)",
			"epoch interval 32", fig8Cols),
		flipSweep("fig9", "Figure 9: DEUCE sensitivity to epoch interval",
			"Figure 9: DEUCE bit flips vs epoch interval (paper: 24.8% / 24.0% / 23.7%)",
			"word size 2 bytes", fig9Cols),
		flipSweep("fig10", "Figure 10: bit flips per write across schemes",
			"Figure 10: bit flips per write (paper: 43% / 23.7% / 22.0% / 20.3% / 10.5%)",
			"epoch 32, 2-byte words", fig10Cols),
		{ID: "table3", Paper: "Table 3: storage overhead and effectiveness", cells: flipCells(table3Cols), table: table3},
		{ID: "fig12", Paper: "Figure 12: per-bit-position write skew (mcf, libq)", cells: fig12Cells, table: fig12},
		{ID: "fig14", Paper: "Figure 14: lifetime normalized to encrypted memory", cells: wearCells(fig14Cols), table: fig14},
		{ID: "fig15", Paper: "Figure 15: write slots per write request", cells: flipCells(fig15Cols), table: fig15},
		{ID: "fig16", Paper: "Figure 16: speedup over encrypted memory", cells: perfCells, table: fig16},
		{ID: "fig17", Paper: "Figure 17: speedup, energy, power, EDP", cells: perfCells, table: fig17},
		flipSweep("fig18", "Figure 18: DEUCE combined with Block-Level Encryption",
			"Figure 18: bit flips with BLE and DEUCE (paper: 33% / 24% / 19.9%)",
			"16-byte AES blocks with per-block counters", fig18Cols),
	}
}

// ByID returns the (paper, ablation or extension) experiment with the
// given ID.
func ByID(id string) (Experiment, error) {
	all := append(append(Experiments(), Ablations()...), Extensions()...)
	for _, e := range all {
		if e.ID == id {
			return e, nil
		}
	}
	var ids []string
	for _, e := range all {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return Experiment{}, fmt.Errorf("exp: unknown experiment %q (known: %v)", id, ids)
}

// column is one scheme configuration of a sweep: a scheme, its params and,
// in a wear sweep, the Start-Gap leveling mode.
type column struct {
	label  string
	kind   core.Kind
	params core.Params
	wear   wear.Mode
}

// sweepCells enumerates a sweep: every SPEC2006 workload against every
// column, workload-major, so workload wi's result for column ci is cell
// wi*len(cols)+ci.
func sweepCells(rc RunConfig, mode string, cols []column) []cellSpec {
	var out []cellSpec
	for _, prof := range workload.SPEC2006() {
		for _, c := range cols {
			out = append(out, cellSpec{mode: mode, prof: prof, kind: c.kind, params: c.params, wearMode: c.wear, rc: rc})
		}
	}
	return out
}

// flipCells is the cell list of a flip sweep over cols(rc).
func flipCells(cols func(RunConfig) []column) func(RunConfig) []cellSpec {
	return func(rc RunConfig) []cellSpec { return sweepCells(rc, "flip", cols(rc)) }
}

// flipSweep is an experiment whose table is a flip sweep's flip fractions:
// one row per workload, an AVERAGE row, and each column's average recorded
// as flips/<label>.
func flipSweep(id, paper, title, note string, cols func(RunConfig) []column) Experiment {
	return Experiment{ID: id, Paper: paper, cells: flipCells(cols),
		table: func(rc RunConfig, res []cellResult) (*Table, error) {
			return averageTable(title, note, cols(rc), res, "flips", pct,
				func(r FlipResult) float64 { return r.FlipFrac }), nil
		}}
}

// averageTable renders one value of a flip sweep's results: one row per
// workload, formatted by format, then an AVERAGE row whose values are
// recorded as metric/<label>.
func averageTable(title, note string, cols []column, res []cellResult, metric string,
	format func(float64) string, value func(FlipResult) float64) *Table {
	t := &Table{Title: title, Note: note, Columns: []string{"Workload"}}
	for _, c := range cols {
		t.Columns = append(t.Columns, c.label)
	}
	avgs := make([]float64, len(cols))
	profs := workload.SPEC2006()
	for wi, p := range profs {
		cells := make([]interface{}, len(cols))
		for ci := range cols {
			v := value(res[wi*len(cols)+ci].flip)
			cells[ci] = format(v)
			avgs[ci] += v
		}
		t.AddRow(p.Name, cells...)
	}
	avgCells := make([]interface{}, len(cols))
	for ci := range cols {
		avg := avgs[ci] / float64(len(profs))
		avgCells[ci] = format(avg)
		t.SetValue(metric, cols[ci].label, avg)
	}
	t.AddRow("AVERAGE", avgCells...)
	return t
}

// pct formats a fraction as a percentage cell.
func pct(f float64) string { return fmt.Sprintf("%.1f%%", f*100) }

// Table2 reports the benchmark characteristics the generators are
// parameterized with.
func Table2(rc RunConfig) (*Table, error) {
	t := &Table{
		Title:   "Table 2: Benchmark Characteristics (8-copy rate mode)",
		Columns: []string{"Workload", "L4 Read Miss (MPKI)", "L4 WriteBack (WBPKI)"},
	}
	for _, p := range workload.SPEC2006() {
		t.AddRow(p.Name, fmt.Sprintf("%.2f", p.MPKI), fmt.Sprintf("%.2f", p.WBPKI))
	}
	return t, nil
}

// fig5Cols is the Figure 5 column set: unencrypted and encrypted memory
// under DCW and FNW.
func fig5Cols(RunConfig) []column {
	return []column{
		{label: "NoEncr_DCW", kind: core.KindPlainDCW},
		{label: "NoEncr_FNW", kind: core.KindPlainFNW},
		{label: "Encr_DCW", kind: core.KindEncrDCW},
		{label: "Encr_FNW", kind: core.KindEncrFNW},
	}
}

// fig8Cols sweeps the DEUCE tracking granularity at epoch 32.
func fig8Cols(RunConfig) []column {
	var cols []column
	for _, wb := range []int{1, 2, 4, 8} {
		cols = append(cols, column{
			label:  fmt.Sprintf("DEUCE_%dB", wb),
			kind:   core.KindDeuce,
			params: core.Params{WordBytes: wb, EpochInterval: 32},
		})
	}
	return cols
}

// fig9Cols sweeps the DEUCE epoch interval at the default 2-byte words.
func fig9Cols(RunConfig) []column {
	var cols []column
	for _, e := range []int{8, 16, 32} {
		cols = append(cols, column{
			label:  fmt.Sprintf("Epoch_%d", e),
			kind:   core.KindDeuce,
			params: core.Params{EpochInterval: e},
		})
	}
	return cols
}

// fig10Cols is the headline scheme comparison's column set.
func fig10Cols(RunConfig) []column {
	return []column{
		{label: "Encr_FNW", kind: core.KindEncrFNW},
		{label: "DEUCE", kind: core.KindDeuce},
		{label: "DynDEUCE", kind: core.KindDynDeuce},
		{label: "DEUCE+FNW", kind: core.KindDeuceFNW},
		{label: "NoEncr_FNW", kind: core.KindPlainFNW},
	}
}

// table3Cols is the Table 3 column set.
func table3Cols(RunConfig) []column {
	return []column{
		{label: "FNW", kind: core.KindEncrFNW},
		{label: "DEUCE", kind: core.KindDeuce},
		{label: "DynDEUCE", kind: core.KindDynDeuce},
		{label: "DEUCE+FNW", kind: core.KindDeuceFNW},
	}
}

// table3 reports storage overhead against average flips.
func table3(rc RunConfig, res []cellResult) (*Table, error) {
	cols := table3Cols(rc)
	profs := workload.SPEC2006()
	t := &Table{
		Title:   "Table 3: storage overhead and effectiveness (paper: 42.7% / 23.7% / 22.0% / 20.3%)",
		Columns: []string{"Scheme", "Overhead", "Avg Bit Flips Per Write"},
	}
	for ci, c := range cols {
		s, err := core.New(c.kind, withLines(c.params, 16))
		if err != nil {
			return nil, err
		}
		sum := 0.0
		for wi := range profs {
			sum += res[wi*len(cols)+ci].flip.FlipFrac
		}
		avg := sum / float64(len(profs))
		t.AddRow(c.label,
			fmt.Sprintf("%d bits/line", s.OverheadBits()),
			pct(avg))
		t.SetValue("flips", c.label, avg)
		t.SetValue("overhead_bits", c.label, float64(s.OverheadBits()))
	}
	return t, nil
}

func withLines(p core.Params, lines int) core.Params {
	p.Lines = lines
	return p
}

// fig12Workloads are the two workloads Figure 12 profiles.
var fig12Workloads = []string{"mcf", "libq"}

// fig12Cells runs each Figure 12 workload on unencrypted memory, keeping
// its per-bit-position write profile.
func fig12Cells(rc RunConfig) []cellSpec {
	var out []cellSpec
	for _, name := range fig12Workloads {
		out = append(out, cellSpec{mode: "flip-pos", prof: mustProfile(name), kind: core.KindPlainDCW, rc: rc})
	}
	return out
}

// mustProfile returns a built-in workload profile; the names are this
// package's own constants, so a miss is a programming error.
func mustProfile(name string) workload.Profile {
	prof, err := workload.ByName(name)
	if err != nil {
		panic(err)
	}
	return prof
}

// fig12 measures per-bit-position write skew for mcf and libquantum on
// unencrypted memory.
func fig12(rc RunConfig, res []cellResult) (*Table, error) {
	t := &Table{
		Title:   "Figure 12: writes per bit position, max/avg skew (paper: ~6x mcf, ~27x libq)",
		Columns: []string{"Workload", "Max/Avg", "P99/Avg", "Median/Avg"},
	}
	for i, name := range fig12Workloads {
		norm := wear.NormalizedProfile(res[i].flip.PositionWrites[:512]) // data cells only
		t.AddRow(name,
			fmt.Sprintf("%.1fx", maxOf(norm)),
			fmt.Sprintf("%.1fx", stats.Percentile(norm, 99)),
			fmt.Sprintf("%.1fx", stats.Percentile(norm, 50)))
		t.SetValue("skew_max", name, maxOf(norm))
	}
	return t, nil
}

func maxOf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// wearPsi is the Start-Gap gap-move rate every wear cell runs with.
const wearPsi = 1

// wearConfig shrinks the array and stretches the run so HWL reaches
// steady state: the Start register must traverse all ~544 bit positions,
// as it does (hundreds of thousands of times) in a full-length run, so the
// array is scaled down and the gap rate up until rounds ≈
// writes/(lines+1) exceeds the line's bit count.
func wearConfig(rc RunConfig) RunConfig {
	rc.setDefaults()
	rc.Lines = 64
	if rc.Writebacks < 40000 {
		rc.Writebacks = 40000
	}
	return rc
}

// wearCells is the cell list of a wear sweep over cols, at wearConfig.
func wearCells(cols []column) func(RunConfig) []cellSpec {
	return func(rc RunConfig) []cellSpec { return sweepCells(wearConfig(rc), "wear", cols) }
}

// fig14Cols is the Figure 14 column set, the encrypted baseline first.
var fig14Cols = []column{
	{label: "baseline", kind: core.KindEncrDCW},
	{label: "FNW", kind: core.KindEncrFNW},
	{label: "DEUCE", kind: core.KindDeuce},
	{label: "DEUCE-HWL", kind: core.KindDeuce, wear: wear.HWL},
}

// fig14 reports lifetime normalized to the encrypted baseline for FNW,
// DEUCE without HWL, and DEUCE with HWL.
func fig14(rc RunConfig, res []cellResult) (*Table, error) {
	t := &Table{
		Title:   "Figure 14: lifetime normalized to encrypted memory (paper: 1.14x / 1.11x / 2.0x)",
		Note:    "lifetime = endurance / max per-bit-position write rate; Start-Gap psi=1, 64-line array",
		Columns: []string{"Workload", "FNW", "DEUCE", "DEUCE-HWL"},
	}
	lifetimeTable(t, fig14Cols, res, "lifetime")
	return t, nil
}

// lifetimeTable fills t from a wear sweep whose first column is the
// baseline: one row per workload of each other column's lifetime relative
// to the baseline, then a GEOMEAN row, recorded as metric/<label> when
// metric is not empty.
func lifetimeTable(t *Table, cols []column, res []cellResult, metric string) {
	geos := make([][]float64, len(cols)-1)
	for wi, prof := range workload.SPEC2006() {
		row := res[wi*len(cols) : (wi+1)*len(cols)]
		cells := make([]interface{}, len(cols)-1)
		for ci, r := range row[1:] {
			rel := r.wear.Profile.RelativeLifetime(row[0].wear.Profile)
			cells[ci] = fmt.Sprintf("%.2fx", rel)
			geos[ci] = append(geos[ci], rel)
		}
		t.AddRow(prof.Name, cells...)
	}
	avg := make([]interface{}, len(geos))
	for ci, g := range geos {
		m := stats.GeoMean(g)
		avg[ci] = fmt.Sprintf("%.2fx", m)
		if metric != "" {
			t.SetValue(metric, cols[ci+1].label, m)
		}
	}
	t.AddRow("GEOMEAN", avg...)
}

// fig15Cols is the Figure 15 column set.
func fig15Cols(RunConfig) []column {
	return []column{
		{label: "Encr_DCW", kind: core.KindEncrDCW},
		{label: "Encr_FNW", kind: core.KindEncrFNW},
		{label: "DEUCE", kind: core.KindDeuce},
		{label: "NoEncr_DCW", kind: core.KindPlainDCW},
	}
}

// fig15 reports average write slots per write request.
func fig15(rc RunConfig, res []cellResult) (*Table, error) {
	return averageTable(
		"Figure 15: write slots used per write request (paper: 4.0 / ~3.97 / 2.64 / 1.92)",
		"128-bit slots, a slot is consumed when any of its cells program",
		fig15Cols(rc), res, "slots",
		func(v float64) string { return fmt.Sprintf("%.2f", v) },
		func(r FlipResult) float64 { return r.SlotAvg }), nil
}

// fig18Cols is the Figure 18 column set.
func fig18Cols(RunConfig) []column {
	return []column{
		{label: "BLE", kind: core.KindBLE},
		{label: "DEUCE", kind: core.KindDeuce},
		{label: "BLE+DEUCE", kind: core.KindBLEDeuce},
	}
}
