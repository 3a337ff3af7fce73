package span

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// WriteChromeTrace exports the tree in the Chrome trace-event JSON format
// (load via chrome://tracing or https://ui.perfetto.dev), matching the
// format obs.Trace.WriteChromeTrace already emits for write events. Each
// span becomes a complete ("X") event with microsecond timestamps; identity
// attributes and notes travel in args. Concurrent spans are packed onto
// separate tid lanes so the viewer nests them correctly: a child rides its
// parent's lane when it does not overlap a sibling there, and spills to a
// fresh lane otherwise.
func (t *Tree) WriteChromeTrace(w io.Writer) error {
	bw := bufio.NewWriter(w)
	bw.WriteString(`{"displayTimeUnit":"ms","traceEvents":[`)
	lanes := 1
	first := true
	emit := func(n *Node, lane int) {
		if !first {
			bw.WriteByte(',')
		}
		first = false
		dur := n.DurNs / 1e3
		if dur < 1 {
			dur = 1
		}
		fmt.Fprintf(bw, `{"name":%q,"cat":"span","ph":"X","ts":%d,"dur":%d,"pid":1,"tid":%d,"args":{`,
			n.Name, n.StartNs/1e3, dur, lane)
		argFirst := true
		writeArg := func(a Attr) {
			if !argFirst {
				bw.WriteByte(',')
			}
			argFirst = false
			fmt.Fprintf(bw, `%q:%q`, a.Key, a.Value)
		}
		for _, a := range n.Attrs {
			writeArg(a)
		}
		for _, a := range n.Notes {
			writeArg(a)
		}
		bw.WriteString(`}}`)
	}
	var place func(n *Node, lane int)
	place = func(n *Node, lane int) {
		emit(n, lane)
		// Pack children into lanes: sub-lane 0 is the parent's own lane
		// (children there nest under the parent in the viewer); children
		// overlapping an earlier sibling spill to fresh global lanes.
		laneEnds := []int64{-1 << 62}
		laneIDs := []int{lane}
		for _, c := range n.Children {
			placed := false
			for i := range laneEnds {
				if laneEnds[i] <= c.StartNs {
					laneEnds[i] = c.EndNs()
					place(c, laneIDs[i])
					placed = true
					break
				}
			}
			if !placed {
				laneEnds = append(laneEnds, c.EndNs())
				laneIDs = append(laneIDs, lanes)
				place(c, lanes)
				lanes++
			}
		}
	}
	// Roots share lane 0 when sequential and spill like children otherwise.
	rootEnds := []int64{-1 << 62}
	rootIDs := []int{0}
	for _, r := range t.Roots {
		placed := false
		for i := range rootEnds {
			if rootEnds[i] <= r.StartNs {
				rootEnds[i] = r.EndNs()
				place(r, rootIDs[i])
				placed = true
				break
			}
		}
		if !placed {
			rootEnds = append(rootEnds, r.EndNs())
			rootIDs = append(rootIDs, lanes)
			place(r, lanes)
			lanes++
		}
	}
	bw.WriteString("]}")
	return bw.Flush()
}

// WriteJSON exports the self-profile as indented JSON with a stable field
// and entry order, suitable for golden files and CI artifacts.
func (p Profile) WriteJSON(w io.Writer) error {
	blob, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(blob, '\n'))
	return err
}
