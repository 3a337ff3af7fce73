package exp

import (
	"fmt"
	"io"
	"sort"

	"deuce/internal/obs"
	"deuce/internal/obs/span"
)

// The experiment planner (DESIGN.md §10). A gate run over several
// experiments is a DAG: warm streams feed cells, cells feed tables — and
// distinct experiments share nodes at every level (Fig16/Fig17 share all
// their cells; Fig5/Fig10/Fig15 share individual cells; every
// same-workload cell shares a warm stream). BuildPlan enumerates that DAG
// from the experiments' own cell lists without running anything,
// deduplicating nodes by the exact key strings the cell memo uses, so the
// plan's sharing is the runtime's sharing by construction. ExecuteCells
// then runs the unique cells through runCells in one flat fan-out, wider
// than any single experiment's.

// PlanNode is one unit of work in a plan DAG.
type PlanNode struct {
	// Kind is "warm-stream", "cell" or "table".
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

	// CellRefs counts cell references before deduplication: the cells
	// the experiments' lists name, shared ones once per experiment.
	CellRefs int

	cells []cellSpec // unique runnable cells, parallel to the cell nodes
	index map[string]int
}

// BuildPlan enumerates the deduplicated execution DAG for the given
// experiment IDs at the given scale, from each experiment's own cell list.
// Experiments whose table is not built from cells (table2, abl-cachesim,
// the extensions) contribute only their table node.
func BuildPlan(ids []string, rc RunConfig) (*Plan, error) {
	rc.setDefaults()
	bsp := rc.startSpan("plan.build", span.Int("experiments", int64(len(ids))))
	defer bsp.End()
	p := &Plan{Config: rc, index: make(map[string]int)}
	for _, id := range ids {
		e, err := ByID(id)
		if err != nil {
			return nil, err
		}
		var deps []int
		if e.cells != nil {
			for _, c := range e.cells(rc) {
				p.CellRefs++
				if ni, ok := p.addCell(c); ok {
					deps = append(deps, ni)
				}
			}
		}
		p.addNode(PlanNode{
			Kind:  "table",
			Key:   tableKey(id, rc),
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

// addCell adds a cell node plus the warm stream it replays; ok is false
// when the cell is unplannable (no canonical key).
func (p *Plan) addCell(c cellSpec) (int, bool) {
	key, ok := c.key()
	if !ok {
		return 0, false
	}
	if i, exists := p.index[key]; exists {
		return i, true
	}
	// Every cell warms a fresh scheme from a recorded stream, so the
	// stream is its only prerequisite.
	dep := p.addNode(PlanNode{Kind: "warm-stream", Key: c.streamKey(),
		Label: fmt.Sprintf("warm %s x%d", c.prof.Name, c.rc.Warmup)})
	i := p.addNode(PlanNode{Kind: "cell", Key: key, Label: c.label(), Deps: []int{dep}})
	p.cells = append(p.cells, c)
	return i, true
}

// PlanStats summarizes a plan for metrics and reporting.
type PlanStats struct {
	WarmStreams int
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
	reg.Gauge("plan_cells").Set(float64(st.Cells))
	reg.Gauge("plan_tables").Set(float64(st.Tables))
	reg.Gauge("plan_cell_refs").Set(float64(st.CellRefs))
}

// ExecuteCells runs every unique cell of the plan through runCells,
// filling the shared cell memo so the experiments' tables, run next, are
// pure assembly. Warm streams materialize on demand inside the cells
// (single-flight), in dependency order by construction.
func (p *Plan) ExecuteCells(progress *obs.Progress) error {
	rc := p.Config
	exec := rc.Spans.Start(rc.SpanParent, "plan.execute", span.Int("cells", int64(len(p.cells))))
	defer exec.End()
	rc.SpanParent, rc.Progress = exec, progress
	_, err := runCells(rc, p.cells)
	return err
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
	fmt.Fprintf(w, "  %d warm streams -> %d cells -> %d tables\n",
		st.WarmStreams, st.Cells, st.Tables)
	if st.CellRefs > st.Cells {
		fmt.Fprintf(w, "  sharing: %d cell refs deduplicated to %d unique (%d runs saved)\n",
			st.CellRefs, st.Cells, st.CellRefs-st.Cells)
	}
	byKind := map[string][]string{}
	for _, n := range p.Nodes {
		byKind[n.Kind] = append(byKind[n.Kind], n.Label)
	}
	for _, kind := range []string{"warm-stream", "cell", "table"} {
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
