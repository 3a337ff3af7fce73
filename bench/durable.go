package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"deuce"
	"deuce/internal/core"
)

// runDurable is durable-sync: one goroutine writes the SPEC2006 mix
// through a DEUCE deuce.Memory on the file backend, in a fresh directory,
// calling Sync after every r.sc.syncEvery-th write (the flush policy). At
// the end the memory is synced, persisted, closed, reopened on the same
// directory and restored, and every line must read back its last
// plaintext.
//
// The traced pass runs the stream through a second DEUCE scheme whose two
// durable regions open through timed backends (core.Params.MakeBackend),
// alternating with the untraced memory each segment.
func runDurable(r *run) error {
	if r.sc.durableSegment%r.sc.syncEvery != 0 {
		return fmt.Errorf("durable-sync: segment of %d writes is not a multiple of the %d-write flush policy", r.sc.durableSegment, r.sc.syncEvery)
	}
	s, err := newSpecStream(r.sc.durableRegions, r.sc.regionLines, r.seed)
	if err != nil {
		return err
	}
	lines := s.lines()
	opts := deuce.Options{Lines: lines, Backend: deuce.FileBackend}

	// dirs owns every directory the run creates, so each is removed
	// however the run ends.
	dirs := make(map[lineMemory]string)
	release := func(m lineMemory) error {
		err := m.Close()
		if rerr := os.RemoveAll(dirs[m]); err == nil {
			err = rerr
		}
		delete(dirs, m)
		return err
	}
	defer func() {
		for m := range dirs {
			release(m) // only reached when the run already failed
		}
	}()
	open := func(build func(dir string) (lineMemory, error)) func() (lineMemory, error) {
		return func() (lineMemory, error) {
			dir, err := os.MkdirTemp(r.workdir, "durable-")
			if err != nil {
				return nil, err
			}
			m, err := build(dir)
			if err != nil {
				os.RemoveAll(dir)
				return nil, err
			}
			dirs[m] = dir
			return m, nil
		}
	}

	w := s.warmup()
	mem, err := setUp(r, w, r.sc.syncEvery, open(func(dir string) (lineMemory, error) {
		o := opts
		o.Dir = dir
		return deuce.New(o)
	}), release)
	if err != nil {
		return err
	}
	mems := []lineMemory{mem}

	var traced *tracedCore
	var probes *backendProbes
	var tracedSegment func(seg int, b *batch, lat []time.Duration) error
	if r.trace {
		probes = newBackendProbes(nil)
		m, err := setUp(r, w, r.sc.syncEvery, open(func(dir string) (lineMemory, error) {
			probes.inner = core.DirBackendMaker(dir, false, 0)
			return newTracedCore(core.KindDeuce, lines, probes, nil)
		}), release)
		if err != nil {
			return err
		}
		traced = m.(*tracedCore)
		traced.syncs = nil
		mems = append(mems, traced)
		tracedSegment = func(seg int, b *batch, lat []time.Duration) error {
			return tracedDurableSegment(r, seg, b, lat, mem, traced, probes)
		}
	}
	s.installInto(mems)
	if err := measureStream(r, s, r.sc.durableSegment, r.sc.syncEvery, mem, tracedSegment); err != nil {
		return err
	}

	if r.trace {
		syncs := traced.syncs
		r.add("core.sync_p50_us", us(percentile(syncs, 0.50)))
		r.add("core.sync_p99_us", us(percentile(syncs, 0.99)))
		for _, ns := range probes.openNs {
			r.add("backend.open_ns", ns)
		}
		verifyLines(r, traced, s, "traced read-back")
		if err := release(traced); err != nil {
			return err
		}
	}
	if err := restart(r, mem.(*deuce.Memory), dirs[mem], opts, s); err != nil {
		return err
	}
	delete(dirs, mem)
	if !r.trace {
		r.add("max_rss_mb", maxRSSMiB())
	}
	return nil
}

// tracedDurableSegment writes the batch through the untraced memory and
// the probed scheme and records the durable path's per-layer numbers.
func tracedDurableSegment(r *run, seg int, b *batch, lat []time.Duration, mem lineMemory, traced *tracedCore, probes *backendProbes) error {
	arr, ctr := probes.regions[core.RegionArray], probes.regions[core.RegionCounters]
	arr0, ctr0 := *arr, *ctr
	core0 := traced.writeNs
	untraced, probed, err := writeBoth(r, seg, b, lat, mem, traced, r.sc.syncEvery)
	if err != nil {
		return err
	}
	r.add("core.write_ns", perOp(traced.writeNs-core0, int64(len(b.lines))))
	r.add("backend.array_sync_ns", perOp(arr.syncNs-arr0.syncNs, arr.syncs-arr0.syncs))
	r.add("backend.counters_sync_ns", perOp(ctr.syncNs-ctr0.syncNs, ctr.syncs-ctr0.syncs))
	r.add("backend.counters_writepage_ns", perOp(ctr.writeNs-ctr0.writeNs, ctr.writes-ctr0.writes))
	r.add("ctrstore.pages_per_sync", perOp(ctr.writes-ctr0.writes, ctr.syncs-ctr0.syncs))
	r.add("bench.trace_overhead", probed.Seconds()/untraced.Seconds())
	return nil
}

// restart syncs and persists mem, closes it, reopens the directory,
// restores the snapshot and checks every line; the directory is removed
// afterwards. The traced pass reports each step's time.
func restart(r *run, mem *deuce.Memory, dir string, opts deuce.Options, s *specStream) error {
	defer os.RemoveAll(dir)
	if err := mem.Sync(); err != nil {
		return err
	}
	snap := filepath.Join(dir, "snapshot.dst")
	start := time.Now()
	if err := mem.PersistToFile(snap); err != nil {
		return err
	}
	persist := time.Since(start)
	if err := mem.Close(); err != nil {
		return err
	}
	opts.Dir = dir
	start = time.Now()
	again, err := deuce.New(opts)
	if err != nil {
		return err
	}
	reopen := time.Since(start)
	start = time.Now()
	if err := again.RestoreFromFile(snap); err != nil {
		again.Close()
		return err
	}
	restore := time.Since(start)
	verifyLines(r, again, s, "after restart")
	if r.trace {
		ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
		r.add("deuce.persist_ms", ms(persist))
		r.add("deuce.reopen_ms", ms(reopen))
		r.add("deuce.restore_ms", ms(restore))
	}
	return again.Close()
}
