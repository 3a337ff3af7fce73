package exp

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"sync/atomic"

	"deuce/internal/core"
	"deuce/internal/obs"
	"deuce/internal/obs/span"
	"deuce/internal/wear"
	"deuce/internal/workload"
)

// The experiment planner (DESIGN.md §10). A gate run over several
// experiments is a DAG: warm streams feed warmed schemes and wear cells,
// warmed schemes feed flip and perf cells, cells feed tables — and
// distinct experiments share nodes at every level (Fig16/Fig17 share a
// whole grid; Fig5/Fig10/Fig15 share individual cells; every
// same-workload cell shares a warm stream).
// BuildPlan enumerates that DAG without running anything, deduplicating
// nodes by the exact key strings the runtime caches use, so the plan's
// sharing is the runtime's sharing by construction. ExecuteCells then runs
// the unique cells through the work-stealing pool in one flat fan-out —
// wider than any single grid, which matters most for Figure 14, whose
// 48 wear cells otherwise run sequentially inside its Run function.

// PlanNode is one unit of work in a plan DAG.
type PlanNode struct {
	// Kind is "warm-stream", "warm-scheme", "cell" or "table".
	Kind string
	// Key is the node's cache key — shared with the runtime caches.
	Key string
	// Label is a short human-readable description for dry-run output.
	Label string
	// Deps are indices into Plan.Nodes of this node's prerequisites.
	Deps []int
}

// Plan is a deduplicated execution DAG over a set of experiments.
type Plan struct {
	Config      RunConfig
	Experiments []string
	Nodes       []PlanNode

	// CellRefs counts cell references before deduplication — the number
	// of cell executions a planless run of the same experiments would
	// start with cold caches (grid- and table-level sharing aside).
	CellRefs int

	cells []cellSpec // unique runnable cells, parallel to the cell nodes
	index map[string]int
}

// cellSpec is one runnable cell: the arguments of a RunFlips, RunPerf or
// RunWear call.
type cellSpec struct {
	mode     string // "flip", "flip-pos", "perf", "wear"
	prof     workload.Profile
	kind     core.Kind
	params   core.Params
	wearMode wear.Mode
	psi      int
	rc       RunConfig
}

// topology is the shape of the recorded stream the cell replays.
func (c cellSpec) topology() warmTopology {
	if c.mode == "perf" {
		return perfTopology(c.rc)
	}
	return flipTopology(c.rc)
}

// run executes the cell, populating the shared result caches.
func (c cellSpec) run() error {
	var err error
	switch c.mode {
	case "flip":
		_, err = RunFlips(c.prof, c.kind, c.params, c.rc, false)
	case "flip-pos":
		_, err = RunFlips(c.prof, c.kind, c.params, c.rc, true)
	case "perf":
		_, err = RunPerf(c.prof, c.kind, c.params, c.rc)
	case "wear":
		_, err = RunWear(c.prof, c.kind, c.params, c.wearMode, c.psi, c.rc)
	default:
		err = fmt.Errorf("exp: unknown cell mode %q", c.mode)
	}
	return err
}

// key returns the cell's cache key; ok is false for uncacheable params
// (such cells cannot be planned — they would re-run inside the table).
func (c cellSpec) key() (string, bool) {
	pk, ok := paramsKey(c.params)
	if !ok {
		return "", false
	}
	switch c.mode {
	case "flip", "flip-pos":
		// Both modes share one cache entry (the cached run always
		// retains positions), hence one key.
		return flipCellKey(c.prof, c.kind, pk, c.rc), true
	case "perf":
		return perfCellKey(c.prof, c.kind, pk, c.rc), true
	case "wear":
		return wearCellKey(c.prof, c.kind, pk, c.wearMode, c.psi, c.rc), true
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

// BuildPlan enumerates the deduplicated execution DAG for the given
// experiment IDs at the given scale. Experiments without a static cell
// enumeration (table2, the ablations) contribute only their table node and
// run conventionally.
func BuildPlan(ids []string, rc RunConfig) (*Plan, error) {
	rc.setDefaults()
	bsp := rc.startSpan("plan.build", span.Int("experiments", int64(len(ids))))
	defer bsp.End()
	p := &Plan{Config: rc, index: make(map[string]int)}
	for _, id := range ids {
		if _, err := ByID(id); err != nil {
			return nil, err
		}
		specs := cellSpecsFor(id, rc)
		var deps []int
		for _, sp := range specs {
			p.CellRefs++
			if ni, ok := p.addCell(sp); ok {
				deps = append(deps, ni)
			}
		}
		p.addNode(PlanNode{
			Kind:  "table",
			Key:   "table|" + id + "|" + rc.key(),
			Label: id,
			Deps:  deps,
		})
		p.Experiments = append(p.Experiments, id)
	}
	st := p.Stats()
	bsp.Annotate(span.Int("cells", int64(st.Cells)), span.Int("cell_refs", int64(st.CellRefs)))
	return p, nil
}

// addNode appends the node unless its key is already present; either way
// it returns the node's index.
func (p *Plan) addNode(n PlanNode) int {
	if i, ok := p.index[n.Key]; ok {
		return i
	}
	p.Nodes = append(p.Nodes, n)
	i := len(p.Nodes) - 1
	p.index[n.Key] = i
	return i
}

// addCell adds a cell node plus its warm-state prerequisites; ok is false
// when the cell is unplannable (no canonical key).
func (p *Plan) addCell(c cellSpec) (int, bool) {
	key, ok := c.key()
	if !ok {
		return 0, false
	}
	if i, exists := p.index[key]; exists {
		return i, true
	}
	// Every cell replays a recorded stream. Flip and perf cells also fork
	// a warmed scheme; wear cells warm a fresh one behind their wrapped
	// array, so the stream is their only prerequisite.
	topo := c.topology()
	sk := warmStreamKey(c.prof, c.rc, topo)
	dep := p.addNode(PlanNode{Kind: "warm-stream", Key: sk,
		Label: fmt.Sprintf("warm %s x%d", c.prof.Name, c.rc.Warmup)})
	if c.mode != "wear" {
		// The runtime hashes warm-scheme params with Lines already set to
		// the stream's line count, so the plan must too, or its warm-scheme
		// keys would never match the cache entries (and measured span
		// durations) they stand for.
		wp := c.params
		wp.Lines = topo.lines()
		pk, _ := paramsKey(wp)
		dep = p.addNode(PlanNode{Kind: "warm-scheme", Key: warmSchemeKey(sk, c.kind, pk),
			Label: fmt.Sprintf("warm %s/%s", c.prof.Name, c.kind), Deps: []int{dep}})
	}
	i := p.addNode(PlanNode{Kind: "cell", Key: key, Label: c.label(), Deps: []int{dep}})
	p.cells = append(p.cells, c)
	return i, true
}

// cellSpecsFor enumerates one experiment's cells, mirroring its Run
// function exactly (same column helpers, same config transformations).
// A nil return means the experiment has no static enumeration.
func cellSpecsFor(id string, rc RunConfig) []cellSpec {
	rc.setDefaults()
	profs := workload.SPEC2006()
	flips := func(cols []cell1) []cellSpec {
		var out []cellSpec
		for _, prof := range profs {
			for _, c := range cols {
				out = append(out, cellSpec{mode: "flip", prof: prof, kind: c.kind, params: c.params, rc: rc})
			}
		}
		return out
	}
	switch id {
	case "fig5":
		return flips(fig5Cols())
	case "fig8":
		return flips(fig8Cols())
	case "fig9":
		return flips(fig9Cols())
	case "fig10":
		return flips(fig10Cols())
	case "table3":
		return flips(table3Cols())
	case "fig15":
		return flips(fig15Cols())
	case "fig18":
		return flips(fig18Cols())
	case "fig12":
		var out []cellSpec
		for _, name := range []string{"mcf", "libq"} {
			prof, err := workload.ByName(name)
			if err != nil {
				continue
			}
			out = append(out, cellSpec{mode: "flip-pos", prof: prof, kind: core.KindPlainDCW, rc: rc})
		}
		return out
	case "fig14":
		wrc := fig14Config(rc)
		var out []cellSpec
		for _, prof := range profs {
			out = append(out, cellSpec{mode: "wear", prof: prof, kind: core.KindEncrDCW,
				wearMode: wear.VWLOnly, psi: fig14Psi, rc: wrc})
			for _, c := range fig14Cols() {
				out = append(out, cellSpec{mode: "wear", prof: prof, kind: c.kind,
					wearMode: c.mode, psi: fig14Psi, rc: wrc})
			}
		}
		return out
	case "fig16", "fig17":
		var out []cellSpec
		for _, prof := range profs {
			out = append(out, cellSpec{mode: "perf", prof: prof, kind: core.KindEncrDCW, rc: rc})
			for _, c := range perfCols {
				out = append(out, cellSpec{mode: "perf", prof: prof, kind: c.kind, params: c.params, rc: rc})
			}
		}
		return out
	}
	return nil
}

// PlanStats summarizes a plan for metrics and reporting.
type PlanStats struct {
	WarmStreams int
	WarmSchemes int
	Cells       int
	Tables      int
	// CellRefs is the pre-dedup cell count; CellRefs - Cells executions
	// are saved by cross-experiment sharing alone.
	CellRefs int
}

// Stats counts the plan's nodes by kind.
func (p *Plan) Stats() PlanStats {
	st := PlanStats{CellRefs: p.CellRefs}
	for _, n := range p.Nodes {
		switch n.Kind {
		case "warm-stream":
			st.WarmStreams++
		case "warm-scheme":
			st.WarmSchemes++
		case "cell":
			st.Cells++
		case "table":
			st.Tables++
		}
	}
	return st
}

// Record publishes the plan's node counts into a metrics registry.
func (p *Plan) Record(reg *obs.Registry) {
	st := p.Stats()
	reg.Gauge("plan_warm_streams").Set(float64(st.WarmStreams))
	reg.Gauge("plan_warm_schemes").Set(float64(st.WarmSchemes))
	reg.Gauge("plan_cells").Set(float64(st.Cells))
	reg.Gauge("plan_tables").Set(float64(st.Tables))
	reg.Gauge("plan_cell_refs").Set(float64(st.CellRefs))
}

// ExecuteCells runs every unique cell through the work-stealing pool,
// populating the shared result caches so the subsequent table runs are
// pure assembly. Warm streams and schemes materialize on demand inside the
// cells (single-flight), in dependency order by construction. The cells of
// one recorded stream run back to back, and the stream and the warmed
// schemes over it leave the cache when its last cell is done: the tables
// read only cached cell results, so past that point a recording is only
// memory, and holding every stream at once would double the gate's RSS.
func (p *Plan) ExecuteCells(progress *obs.Progress) error {
	var streams []string    // stream keys, in order of first use
	var groups [][]cellSpec // each stream's cells
	for _, c := range p.cells {
		sk := warmStreamKey(c.prof, c.rc, c.topology())
		g := slices.Index(streams, sk)
		if g < 0 {
			g = len(streams)
			streams = append(streams, sk)
			groups = append(groups, nil)
		}
		groups[g] = append(groups[g], c)
	}
	cells := slices.Concat(groups...)
	group := make([]int, 0, len(cells)) // each cell's stream
	left := make([]atomic.Int64, len(groups))
	for g, gc := range groups {
		left[g].Store(int64(len(gc)))
		for range gc {
			group = append(group, g)
		}
	}
	exec := p.Config.Spans.Start(p.Config.SpanParent, "plan.execute", span.Int("cells", int64(len(cells))))
	defer exec.End()
	return forEachCellObserved(len(cells), progress, func(i int) error {
		c := cells[i] // copy: the spec's RunConfig is re-parented per execution
		c.rc.SpanParent = exec
		err := c.run()
		if g := group[i]; left[g].Add(-1) == 0 {
			dropStream(streams[g])
		}
		if err != nil {
			return fmt.Errorf("%s: %w", c.label(), err)
		}
		return nil
	})
}

// SpanDAG projects the plan onto span.DAGNode for critical-path analysis,
// attaching each node's measured duration from durByKey — typically
// span.Tree.MaxDurByAttr("key") over a traced run, whose "key" identity
// attributes carry the very cache-key strings the plan nodes use. Nodes
// with no measurement (work served from recordings, or never reached)
// contribute zero duration.
func (p *Plan) SpanDAG(durByKey map[string]int64) []span.DAGNode {
	nodes := make([]span.DAGNode, len(p.Nodes))
	for i, n := range p.Nodes {
		nodes[i] = span.DAGNode{
			Label: n.Kind + " " + n.Label,
			DurNs: durByKey[n.Key],
			Deps:  n.Deps,
		}
	}
	return nodes
}

// Render writes a human-readable dry-run of the plan: node totals, the
// sharing summary, and each phase's work items.
func (p *Plan) Render(w io.Writer) {
	st := p.Stats()
	fmt.Fprintf(w, "plan: %d experiments at %s\n", len(p.Experiments), p.Config.key())
	fmt.Fprintf(w, "  %d warm streams -> %d warmed schemes -> %d cells -> %d tables\n",
		st.WarmStreams, st.WarmSchemes, st.Cells, st.Tables)
	if st.CellRefs > st.Cells {
		fmt.Fprintf(w, "  sharing: %d cell refs deduplicated to %d unique (%d runs saved)\n",
			st.CellRefs, st.Cells, st.CellRefs-st.Cells)
	}
	byKind := map[string][]string{}
	for _, n := range p.Nodes {
		byKind[n.Kind] = append(byKind[n.Kind], n.Label)
	}
	for _, kind := range []string{"warm-stream", "warm-scheme", "cell", "table"} {
		labels := byKind[kind]
		if len(labels) == 0 {
			continue
		}
		sort.Strings(labels)
		fmt.Fprintf(w, "  phase %s (%d):\n", kind, len(labels))
		for _, l := range labels {
			fmt.Fprintf(w, "    %s\n", l)
		}
	}
}
