package main

import (
	"time"

	"deuce"
	"deuce/internal/core"
	"deuce/internal/obs"
	"deuce/internal/workload"
)

// runWrite is write-deuce and write-encr: one goroutine writes the
// SPEC2006 mix (one region of regionLines lines per profile) through a
// deuce.Memory of the given scheme on the in-memory backend, in a closed
// loop.
//
// The traced pass runs the same stream through a second, identically
// built scheme whose pcmdev array and Write calls are probed.
func runWrite(r *run, kind deuce.Scheme) error {
	s, err := newSpecStream(len(workload.SPEC2006()), r.sc.regionLines, r.seed)
	if err != nil {
		return err
	}
	lines := s.lines()
	w := s.warmup()
	keep := func(lineMemory) error { return nil }
	mem, err := setUp(r, w, 0, func() (lineMemory, error) {
		return deuce.New(deuce.Options{Lines: lines, Scheme: kind})
	}, keep)
	if err != nil {
		return err
	}
	mems := []lineMemory{mem}

	var traced func(seg int, b *batch, lat []time.Duration) error
	if r.trace {
		events := obs.NewTrace(r.sc.writeSegment, 1)
		m, err := setUp(r, w, 0, func() (lineMemory, error) {
			return newTracedCore(core.Kind(kind), lines, nil, events)
		}, keep)
		if err != nil {
			return err
		}
		iso, err := newIsolatedLayers(lines)
		if err != nil {
			return err
		}
		mems = append(mems, m)
		traced = func(seg int, b *batch, lat []time.Duration) error {
			return tracedWriteSegment(r, seg, b, lat, mem, m.(*tracedCore), events, iso)
		}
	}
	s.installInto(mems)
	if err := measureStream(r, s, r.sc.writeSegment, 0, mem, traced); err != nil {
		return err
	}
	for _, m := range mems {
		verifyLines(r, m, s, "read-back")
	}
	if !r.trace {
		r.add("max_rss_mb", maxRSSMiB())
	}
	return nil
}

// tracedWriteSegment writes the batch through the untraced memory and the
// probed scheme and records the write path's per-layer numbers.
func tracedWriteSegment(r *run, seg int, b *batch, lat []time.Duration, mem lineMemory, traced *tracedCore, events *obs.Trace, iso *isolatedLayers) error {
	a := traced.arr
	arr0, dev0, core0 := *a, a.Stats(), traced.writeNs
	events.Reset()
	untraced, probed, err := writeBoth(r, seg, b, lat, mem, traced, 0)
	if err != nil {
		return err
	}
	n := int64(len(b.lines))
	coreNs := traced.writeNs - core0
	writeNs, peekNs := a.writeNs-arr0.writeNs, a.peekNs-arr0.peekNs
	r.add("core.write_ns", perOp(coreNs, n))
	r.add("core.self_ns", perOp(coreNs-writeNs-peekNs, n))
	r.add("pcmdev.write_ns", perOp(writeNs, a.writes-arr0.writes))
	r.add("pcmdev.peek_ns", perOp(peekNs, a.peeks-arr0.peeks))
	r.add("pcmdev.peeks_per_write", perOp(a.peeks-arr0.peeks, n))
	st := a.Stats().Delta(dev0)
	r.add("pcmdev.data_flips_per_write", perOp(int64(st.DataFlips), n))
	r.add("pcmdev.meta_flips_per_write", perOp(int64(st.MetaFlips), n))
	var resets int64
	for _, ev := range events.Events() {
		if ev.EpochReset {
			resets++
		}
	}
	r.add("core.epoch_reset_frac", perOp(resets, n))
	r.add("bench.trace_overhead", probed.Seconds()/untraced.Seconds())
	iso.measure(r, b)
	return nil
}
