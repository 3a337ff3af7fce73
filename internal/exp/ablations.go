package exp

import (
	"fmt"

	"deuce/internal/core"
	"deuce/internal/stats"
	"deuce/internal/wear"
	"deuce/internal/workload"
)

// Ablations returns the design-choice studies that go beyond the paper's
// figures (DESIGN.md §3, "Ablations"). They run through the same harness
// as the paper experiments: `deucebench -experiment abl-epoch` etc.
func Ablations() []Experiment {
	return []Experiment{
		flipSweep("abl-epoch", "Ablation: DEUCE epoch intervals beyond the paper (8..128)",
			"Ablation: DEUCE bit flips for epoch intervals 8..128",
			"extends Figure 9; long epochs keep re-encrypting words whose activity has moved on",
			ablEpochCols),
		flipSweep("abl-fnwgran", "Ablation: FNW granularity on encrypted memory (1..8 bytes)",
			"Ablation: Encr_FNW bit flips vs FNW granularity",
			"64/32/16/8 flip bits per line respectively",
			ablFNWGranCols),
		{ID: "abl-hwl", Paper: "Ablation: plain vs hashed HWL rotation (paper footnote 2)",
			cells: wearCells(ablHWLCols), table: ablHWLHashed},
		{ID: "abl-meta", Paper: "Ablation: figure of merit with vs without metadata flips",
			cells: flipCells(ablMetaCols), table: ablMetadata},
		flipSweep("abl-related", "Related work (§7.2): AddrPad and i-NVMM vs DEUCE — write cost vs protection",
			"Related work: flips per write vs protection (AddrPad/i-NVMM trade security for writes)",
			"AddrPad: no bus-snooping protection; i-NVMM: hot set unencrypted at rest (cost depends on hot budget); DEUCE: full protection",
			ablRelatedCols),
		{ID: "abl-pausing", Paper: "Ablation: write pausing (ref [6]) under encrypted vs DEUCE write pressure",
			cells: pausingCells, table: ablWritePausing},
		{ID: "abl-ecp", Paper: "Ablation: ECP spare cells (ref [4]) vs HWL — two answers to wear skew",
			cells: wearCells(ablECPCols), table: ablECP},
		{ID: "abl-otp", Paper: "Motivation (§2.3): OTP parallel pad generation vs serialized decryption",
			cells: otpCells, table: ablOTP},
		{ID: "abl-cachesim", Paper: "Validation: direct writeback model vs cache-hierarchy-derived stream",
			table: plain(AblCacheSim)},
		{ID: "abl-ctrcache", Paper: "Ablation: counter-cache size — the hidden read cost of counter-mode encryption",
			cells: ctrCacheCells, table: ablCtrCache},
	}
}

// variantCells enumerates, per SPEC2006 workload, one perf cell for every
// kind under every variant of rc: workload-major, then kind, then variant.
func variantCells(rc RunConfig, kinds []core.Kind, variants []func(*RunConfig)) []cellSpec {
	var out []cellSpec
	for _, prof := range workload.SPEC2006() {
		for _, k := range kinds {
			for _, v := range variants {
				vrc := rc
				v(&vrc)
				out = append(out, cellSpec{mode: "perf", prof: prof, kind: k, rc: vrc})
			}
		}
	}
	return out
}

// ratioTable fills t from perf results holding perRow cells per workload:
// one row per workload with, for each pair, the execution time of that
// workload's cell pair[0] over its cell pair[1], then a GEOMEAN row.
// format renders a ratio.
func ratioTable(t *Table, res []cellResult, perRow int, pairs [][2]int, format string) {
	geos := make([][]float64, len(pairs))
	for wi, prof := range workload.SPEC2006() {
		row := res[wi*perRow : (wi+1)*perRow]
		cells := make([]interface{}, len(pairs))
		for pi, p := range pairs {
			r := row[p[0]].perf.Timing.ExecNs / row[p[1]].perf.Timing.ExecNs
			cells[pi] = fmt.Sprintf(format, r)
			geos[pi] = append(geos[pi], r)
		}
		t.AddRow(prof.Name, cells...)
	}
	avg := make([]interface{}, len(pairs))
	for pi := range pairs {
		avg[pi] = fmt.Sprintf(format, stats.GeoMean(geos[pi]))
	}
	t.AddRow("GEOMEAN", avg...)
}

// ctrCacheSizes are the counter-cache capacities abl-ctrcache sweeps, the
// ideal (always-hit) store first.
var ctrCacheSizes = []struct {
	label  string
	blocks int
}{
	{"ideal", 0},
	{"64KB", 1024},
	{"4KB", 64},
	{"512B", 8},
}

// ctrCacheCells runs the encrypted baseline at every counter-cache size.
func ctrCacheCells(rc RunConfig) []cellSpec {
	var variants []func(*RunConfig)
	for _, sz := range ctrCacheSizes {
		blocks := sz.blocks
		variants = append(variants, func(rc *RunConfig) { rc.CounterCacheBlocks = blocks })
	}
	return variantCells(rc, []core.Kind{core.KindEncrDCW}, variants)
}

// ablCtrCache measures the performance cost of counter storage: every
// request needs its line's counter before pad generation, and a counter-
// cache miss is an extra memory read on the critical path. The paper (like
// most of the literature) assumes an ideal counter store; this ablation
// shows how large the SRAM must be for that assumption to hold.
func ablCtrCache(rc RunConfig, res []cellResult) (*Table, error) {
	t := &Table{
		Title:   "Ablation: slowdown vs counter-cache capacity (encrypted baseline)",
		Note:    "slowdown = exec(with counter fetches)/exec(ideal counter store); 16 counters per 64B block",
		Columns: []string{"Workload"},
	}
	var pairs [][2]int
	for i, sz := range ctrCacheSizes[1:] {
		t.Columns = append(t.Columns, sz.label)
		pairs = append(pairs, [2]int{i + 1, 0})
	}
	ratioTable(t, res, len(ctrCacheSizes), pairs, "%.2fx")
	return t, nil
}

// ablECPCols are DEUCE without and with HWL, on which abl-ecp weighs ECP-6.
var ablECPCols = []column{
	{label: "DEUCE", kind: core.KindDeuce},
	{label: "DEUCE-HWL", kind: core.KindDeuce, wear: wear.HWL},
}

// ablECP contrasts the two mechanisms that address intra-line wear: spare
// cells (ECP-6, ref [4]) absorb the first few hot-cell deaths, HWL
// prevents hot cells from existing. The measured result is instructive:
// ECP-6 barely helps DEUCE even *without* HWL, because DEUCE's wear skew
// is word-grained — each hot footprint word contributes 16 similarly-hot
// cells, far more than six spares can absorb. Flattening the profile
// (HWL) is the effective defence; spares only mop up true outlier cells.
func ablECP(rc RunConfig, res []cellResult) (*Table, error) {
	t := &Table{
		Title:   "Ablation: lifetime gain from ECP-6 spares, with and without HWL",
		Note:    "gain = lifetime(ECP-6)/lifetime(first-cell-death); word-grained skew defeats per-cell spares",
		Columns: []string{"Workload", "DEUCE gain", "DEUCE-HWL gain"},
	}
	var gPlain, gHWL []float64
	for wi, prof := range workload.SPEC2006() {
		plain, hwl := res[2*wi].wear, res[2*wi+1].wear
		gp, err := wear.ECP6.Gain(plain.PositionWrites, plain.Writes)
		if err != nil {
			return nil, err
		}
		gh, err := wear.ECP6.Gain(hwl.PositionWrites, hwl.Writes)
		if err != nil {
			return nil, err
		}
		gPlain = append(gPlain, gp)
		gHWL = append(gHWL, gh)
		t.AddRow(prof.Name, fmt.Sprintf("%.2fx", gp), fmt.Sprintf("%.2fx", gh))
	}
	t.AddRow("GEOMEAN",
		fmt.Sprintf("%.2fx", stats.GeoMean(gPlain)),
		fmt.Sprintf("%.2fx", stats.GeoMean(gHWL)))
	return t, nil
}

// otpCells runs the encrypted baseline with OTP's parallel pad generation
// (the default 75ns reads) and with the AES latency (~40ns) serialized
// onto every read.
func otpCells(rc RunConfig) []cellSpec {
	return variantCells(rc, []core.Kind{core.KindEncrDCW}, []func(*RunConfig){
		func(*RunConfig) {},
		func(rc *RunConfig) { rc.ReadLatencyNs = 75 + 40 },
	})
}

// ablOTP quantifies §2.3's motivation for one-time-pad counter mode: with
// the pad generated in parallel with the array access, decryption adds
// nothing to the read path; a serialized design adds the full AES latency
// (~40ns) to every read miss.
func ablOTP(rc RunConfig, res []cellResult) (*Table, error) {
	t := &Table{
		Title:   "Motivation: slowdown of serialized decryption vs OTP (reads 75ns -> 115ns)",
		Note:    "slowdown = exec(array+AES serialized)/exec(OTP parallel), encrypted baseline",
		Columns: []string{"Workload", "Slowdown"},
	}
	ratioTable(t, res, 2, [][2]int{{1, 0}}, "%.2fx")
	return t, nil
}

// pausingCells runs the encrypted baseline and DEUCE without and with
// write pausing.
func pausingCells(rc RunConfig) []cellSpec {
	return variantCells(rc, []core.Kind{core.KindEncrDCW, core.KindDeuce}, []func(*RunConfig){
		func(*RunConfig) {},
		func(rc *RunConfig) { rc.WritePausing = true },
	})
}

// ablWritePausing measures how much letting reads cancel in-flight write
// slots (write pausing, paper ref [6]) helps, and how the benefit shrinks
// once DEUCE has already removed most write pressure.
func ablWritePausing(rc RunConfig, res []cellResult) (*Table, error) {
	t := &Table{
		Title:   "Ablation: speedup from write pausing, encrypted baseline vs DEUCE",
		Note:    "speedup = exec(no pausing)/exec(pausing), per scheme",
		Columns: []string{"Workload", "Encr_DCW", "DEUCE"},
	}
	ratioTable(t, res, 4, [][2]int{{0, 1}, {2, 3}}, "%.2f")
	return t, nil
}

// ablRelatedCols compares DEUCE against the §7.2 related-work designs:
// both alternatives reach near-DCW write cost, but AddrPad gives up
// bus-snooping protection entirely and i-NVMM leaves the hot working set
// exposed — the columns quantify the write cost, the protection summary is
// fixed by construction.
func ablRelatedCols(rc RunConfig) []column {
	return []column{
		{label: "NoEncr_DCW", kind: core.KindPlainDCW},
		{label: "AddrPad", kind: core.KindAddrPad},
		{label: "iNVMM_1/8", kind: core.KindINVMM, params: core.Params{HotCapacity: rc.Lines / 8}},
		{label: "iNVMM_all", kind: core.KindINVMM, params: core.Params{HotCapacity: rc.Lines}},
		{label: "DEUCE", kind: core.KindDeuce},
		{label: "Encr_DCW", kind: core.KindEncrDCW},
	}
}

// ablEpochCols extends Figure 9's epoch sweep to 64 and 128 to expose the
// drifting-footprint penalty the paper predicts for long epochs.
func ablEpochCols(RunConfig) []column {
	var cols []column
	for _, e := range []int{8, 16, 32, 64, 128} {
		cols = append(cols, column{
			label:  fmt.Sprintf("Epoch_%d", e),
			kind:   core.KindDeuce,
			params: core.Params{EpochInterval: e},
		})
	}
	return cols
}

// ablFNWGranCols sweeps the Flip-N-Write word size on encrypted memory:
// finer granularity buys more inversion opportunities but pays more flip
// bits per line.
func ablFNWGranCols(RunConfig) []column {
	var cols []column
	for _, wb := range []int{1, 2, 4, 8} {
		cols = append(cols, column{
			label:  fmt.Sprintf("FNW_%dB", wb),
			kind:   core.KindEncrFNW,
			params: core.Params{WordBytes: wb},
		})
	}
	return cols
}

// ablHWLCols are the encrypted baseline and DEUCE under plain and hashed
// HWL rotation.
var ablHWLCols = []column{
	{label: "baseline", kind: core.KindEncrDCW},
	{label: "HWL", kind: core.KindDeuce, wear: wear.HWL},
	{label: "HWL-hashed", kind: core.KindDeuce, wear: wear.HWLHashed},
}

// ablHWLHashed verifies the footnote-2 claim: hashing the rotation amount
// per line (defeating adaptive write patterns) costs nothing in wear
// uniformity relative to the plain Start'+1 rotation.
func ablHWLHashed(rc RunConfig, res []cellResult) (*Table, error) {
	t := &Table{
		Title:   "Ablation: lifetime of plain HWL vs hashed HWL (footnote 2)",
		Note:    "normalized to encrypted memory; Start-Gap psi=1, 64-line array",
		Columns: []string{"Workload", "HWL", "HWL-hashed"},
	}
	lifetimeTable(t, ablHWLCols, res, "")
	return t, nil
}

// ablMetaCols are the schemes whose bookkeeping cost abl-meta measures.
func ablMetaCols(RunConfig) []column {
	return []column{
		{label: "Encr_FNW", kind: core.KindEncrFNW},
		{label: "DEUCE", kind: core.KindDeuce},
		{label: "DynDEUCE", kind: core.KindDynDeuce},
		{label: "DEUCE+FNW", kind: core.KindDeuceFNW},
	}
}

// ablMetadata contrasts the paper's figure of merit (metadata flips
// included, §3.3) against data-cells-only accounting, quantifying how much
// of each scheme's cost is its own bookkeeping.
func ablMetadata(rc RunConfig, res []cellResult) (*Table, error) {
	cols := ablMetaCols(rc)
	profs := workload.SPEC2006()
	t := &Table{
		Title:   "Ablation: flips per write, with vs without metadata cells",
		Note:    "the paper counts metadata (§3.3); the delta is each scheme's bookkeeping cost",
		Columns: []string{"Scheme", "With metadata", "Data only", "Metadata share"},
	}
	for ci, c := range cols {
		var with, data float64
		for wi := range profs {
			r := res[wi*len(cols)+ci].flip
			with += r.FlipFrac
			data += r.DataFlipFrac
		}
		n := float64(len(profs))
		with, data = with/n, data/n
		t.AddRow(c.label, pct(with), pct(data), pct((with-data)/with))
	}
	return t, nil
}
