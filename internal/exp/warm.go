package exp

import (
	"fmt"
	"io"
	"sync"

	"deuce/internal/core"
	"deuce/internal/obs/span"
	"deuce/internal/trace"
	"deuce/internal/wear"
	"deuce/internal/workload"
)

// The stream store (DESIGN.md §10). A cell's writeback stream is a pure
// function of (profile, topology, seed, warmup): every scheme and
// configuration column over one workload consumes the same bytes, as every
// scheme in the paper replays one fixed trace. This file records each
// stream once per (profile, topology, seed, warmup) as a warmEntry:
// installs, warmup writes and the measured window, in synthesis order. It
// is the only place in this package (cachesim aside) that runs a
// workload.Generator. A cell that needs more of the measured window than
// is recorded extends the recording under the entry's mutex, so a shorter
// run replays a prefix of a longer one.
//
// A cell builds a fresh scheme, replays the recorded warmup into it and
// then replays its measured window. Recorded prefixes are never mutated,
// so concurrent cells need no locks beyond the entry's own and the cache's
// single-flight.

// Flags on a recorded line: the op is an initial page placement or, in a
// timed stream, a read miss. Unflagged ops are writebacks.
const (
	opInstall = 1 << 63
	opRead    = 1 << 62
)

// stream is a recording, or an immutable view of one. lines holds every
// op in synthesis order, flagged; data the payload of every install and
// writeback, workload.LineBytes each, in op order; events, in timed
// streams only, gap<<8 | cpu of every measured write or read.
type stream struct {
	lines  []uint64
	data   []byte
	events []uint64
}

// warmEntry is one recorded stream and the generator parked at its end.
// The generator advances only under mu, to extend the recording.
type warmEntry struct {
	key   string
	timed bool

	mu       sync.Mutex
	gen      *workload.Generator
	rec      stream
	measured int // measured writes (timed: events) recorded
}

// warmTopology pins the generator shape a runner records: RunFlips uses
// one CPU over the full working set and records writebacks, RunPerf eight
// CPUs over half and records the timed read/writeback event stream.
type warmTopology struct {
	cpus  int
	lpc   int // LinesPerCPU
	timed bool
}

// lines is the generator's line count, and so every cell's Params.Lines.
func (t warmTopology) lines() int { return t.cpus * t.lpc }

func flipTopology(rc RunConfig) warmTopology { return warmTopology{cpus: 1, lpc: rc.Lines} }

// perfTopology halves the per-CPU working set: 8 cores, total memory
// bounded (see RunPerf).
func perfTopology(rc RunConfig) warmTopology {
	return warmTopology{cpus: perfCPUs, lpc: rc.Lines / 2, timed: true}
}

// warmStreamKey identifies one recorded stream: profile, topology, seed
// and warmup length, but not the measured length, which only extends it.
// The planner uses the same key to predict sharing.
func warmStreamKey(prof workload.Profile, rc RunConfig, topo warmTopology) string {
	return fmt.Sprintf("warmStream|prof=%+v|cpus=%d|lpc=%d|timed=%t|seed=%d|warm=%d",
		prof, topo.cpus, topo.lpc, topo.timed, rc.Seed, rc.Warmup)
}

// streamFor returns the recorded stream for the tuple, recording it on
// first use, and a view holding its warmup and at least n measured writes
// (timed: events). rc must be defaulted.
func streamFor(prof workload.Profile, rc RunConfig, topo warmTopology, n int) (*warmEntry, stream, error) {
	key := warmStreamKey(prof, rc, topo)
	v, err := sharedCache.Do(key, func() (interface{}, error) {
		// Rooted at the tracer, not the triggering cell: under the cell
		// pool whichever cell reaches the single-flight entry first would
		// otherwise become the parent, making the tree schedule-dependent.
		sp := rc.Spans.Start(nil, "warm-stream", span.Str("key", key))
		defer sp.End()
		e := &warmEntry{key: key, timed: topo.timed}
		gen, err := workload.New(prof, workload.Config{
			Seed:        rc.Seed,
			CPUs:        topo.cpus,
			LinesPerCPU: topo.lpc,
			// Record installs in synthesis order: a replay applies each
			// one exactly where a live generator's FirstTouch fires.
			FirstTouch: func(line uint64, initial []byte) { e.record(line|opInstall, initial) },
		})
		if err != nil {
			return nil, err
		}
		for i := 0; i < rc.Warmup; i++ {
			e.record(gen.NextWriteback(i % topo.cpus))
		}
		e.gen = gen
		e.extend(n)
		return e, nil
	})
	if err != nil {
		return nil, stream{}, err
	}
	e := v.(*warmEntry)
	return e, e.window(rc.Spans, n), nil
}

// dropStream removes a recorded stream from the cache. Cells holding it
// keep it; a later request records the stream again, bit-identically.
func dropStream(key string) {
	sharedCache.forget(func(k string) bool { return k == key })
}

// record appends one op; the caller holds mu or owns e exclusively.
func (e *warmEntry) record(line uint64, data []byte) {
	e.rec.lines = append(e.rec.lines, line)
	e.rec.data = append(e.rec.data, data...)
}

// extend records measured writes (timed: events) until n are recorded.
// The caller holds mu or owns e exclusively.
func (e *warmEntry) extend(n int) {
	for ; e.measured < n; e.measured++ {
		if !e.timed {
			e.record(e.gen.NextWriteback(0))
			continue
		}
		ev, _ := e.gen.Next() // a Generator's stream never ends
		if ev.Kind == trace.Read {
			e.rec.lines = append(e.rec.lines, ev.Line|opRead)
		} else {
			e.record(ev.Line, ev.Data)
		}
		e.rec.events = append(e.rec.events, uint64(ev.Gap)<<8|uint64(ev.CPU))
	}
}

// window extends the recording to n measured writes (timed: events) if it
// is shorter and returns a view of everything recorded. Appends past a
// view's end never touch the elements it holds, and its capacity is
// clipped, so views need no lock.
func (e *warmEntry) window(tr *span.Tracer, n int) stream {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.measured < n {
		sp := tr.Start(nil, "warm-stream", span.Str("key", e.key))
		e.extend(n)
		sp.End()
	}
	r := e.rec
	return stream{
		lines:  r.lines[:len(r.lines):len(r.lines)],
		data:   r.data[:len(r.data):len(r.data)],
		events: r.events[:len(r.events):len(r.events)],
	}
}

// cursor replays a recorded stream into a scheme, installing each line
// where the recording reaches its install. It is the trace.Source of a
// timed cell.
type cursor struct {
	st          stream
	s           core.Scheme
	op, off, ev int
}

// next applies the installs ahead of the next writeback or read and
// returns it. data aliases the recording and must not be modified.
func (c *cursor) next() (line uint64, data []byte, read bool) {
	for {
		l := c.st.lines[c.op]
		c.op++
		if l&opRead != 0 {
			return l &^ opRead, nil, true
		}
		data = c.st.data[c.off : c.off+workload.LineBytes : c.off+workload.LineBytes]
		c.off += workload.LineBytes
		if l&opInstall == 0 {
			return l, data, false
		}
		c.s.Install(l&^opInstall, data)
	}
}

// Next implements trace.Source over a timed stream's measured window.
func (c *cursor) Next() (trace.Event, error) {
	if c.ev == len(c.st.events) {
		return trace.Event{}, io.EOF
	}
	line, data, read := c.next()
	m := c.st.events[c.ev]
	c.ev++
	e := trace.Event{Kind: trace.Writeback, Line: line, CPU: uint8(m), Gap: uint32(m >> 8), Data: data}
	if read {
		e.Kind = trace.Read
	}
	return e, nil
}

// warmUp replays the first writes writebacks of a stream, with their
// installs, into s and returns the cursor parked just past them.
func warmUp(st stream, s core.Scheme, writes int) *cursor {
	c := &cursor{st: st, s: s}
	for i := 0; i < writes; i++ {
		line, data, _ := c.next()
		s.Write(line, data)
	}
	return c
}

// warmedScheme hands a runner a fresh scheme warmed by replaying the
// recorded warmup (rc.Warmup writebacks) and a cursor over the recorded
// stream parked at its measured window, which holds at least n writes
// (timed: events). The result is bit-identical to a live generator driving
// a fresh scheme, pinned by the warm differential suite.
func warmedScheme(prof workload.Profile, kind core.Kind, params core.Params, rc RunConfig, topo warmTopology, n int) (*cursor, error) {
	wsp := rc.startSpan("warmup", span.Str("workload", prof.Name), span.Str("scheme", string(kind)))
	defer wsp.End()
	_, st, err := streamFor(prof, rc, topo, n)
	if err != nil {
		return nil, err
	}
	warmups.Add(1)
	params.Lines = topo.lines()
	params.Trace = rc.Trace
	s, err := core.New(kind, params)
	if err != nil {
		return nil, err
	}
	return warmUp(st, s, rc.Warmup), nil
}

// Cell cache keys. The planner predicts runtime sharing by computing the
// same strings the result caches use, so the two can never drift: a plan
// node and a cache entry coincide exactly when their keys are equal.

func flipCellKey(prof workload.Profile, kind core.Kind, pk string, rc RunConfig) string {
	return fmt.Sprintf("flipCell|prof=%+v|kind=%s|%s|%s", prof, kind, pk, rc.key())
}

func perfCellKey(prof workload.Profile, kind core.Kind, pk string, rc RunConfig) string {
	return fmt.Sprintf("perfCell|prof=%+v|kind=%s|%s|%s", prof, kind, pk, rc.key())
}

func wearCellKey(prof workload.Profile, kind core.Kind, pk string, mode wear.Mode, psi int, rc RunConfig) string {
	return fmt.Sprintf("wearCell|prof=%+v|kind=%s|%s|mode=%v|psi=%d|%s", prof, kind, pk, mode, psi, rc.key())
}

// cellAttrs builds the identity attributes for a cell span: workload and
// scheme always, plus the cell's cache key when it has one. The key attr
// carries the exact string the plan node and cache entry use, which is
// what lets the critical-path analysis map measured span durations back
// onto plan-DAG nodes.
func cellAttrs(prof workload.Profile, kind core.Kind, params core.Params, rc RunConfig,
	keyFn func(workload.Profile, core.Kind, string, RunConfig) string) []span.Attr {
	attrs := []span.Attr{span.Str("workload", prof.Name), span.Str("scheme", string(kind))}
	if pk, ok := paramsKey(params); ok {
		attrs = append(attrs, span.Str("key", keyFn(prof, kind, pk, rc)))
	}
	return attrs
}
