package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"deuce"
	"deuce/internal/bitutil"
	"deuce/internal/ctrstore"
	"deuce/internal/otp"
	"deuce/internal/workload"
)

const lineBytes = workload.LineBytes

// lineMemory is what the write-path workloads drive: deuce.Memory in the
// untraced pass, a tracedCore beside it in the traced one.
type lineMemory interface {
	Install(line uint64, data []byte)
	Write(line uint64, data []byte) deuce.WriteInfo
	ReadInto(line uint64, dst []byte)
	Sync() error
	Close() error
}

// specStream is the write-path input: region r of regionLines lines
// replays SPEC2006 profile r mod 12 with its own generator, and writebacks
// go round-robin over the regions. It keeps a shadow copy of every line's
// last plaintext, which the run's final read-back is checked against.
type specStream struct {
	gens        []*workload.Generator
	regionLines int
	next        int
	shadow      []byte
	// onInstall receives each line's initial content the first time the
	// stream touches it (paper §3.1: pages are placed and encrypted
	// before the measured run).
	onInstall func(line uint64, data []byte)
}

func newSpecStream(regions, regionLines int, seed int64) (*specStream, error) {
	profs := workload.SPEC2006()
	s := &specStream{regionLines: regionLines, shadow: make([]byte, regions*regionLines*lineBytes)}
	for r := 0; r < regions; r++ {
		base := uint64(r * regionLines)
		g, err := workload.New(profs[r%len(profs)], workload.Config{
			LinesPerCPU: regionLines,
			Seed:        seed*1009 + int64(r),
			FirstTouch: func(line uint64, initial []byte) {
				copy(s.shadow[(base+line)*lineBytes:], initial)
				s.onInstall(base+line, initial)
			},
		})
		if err != nil {
			return nil, err
		}
		s.gens = append(s.gens, g)
	}
	return s, nil
}

func (s *specStream) lines() int { return len(s.shadow) / lineBytes }

// installInto makes every later first touch install the line into each of
// mems.
func (s *specStream) installInto(mems []lineMemory) {
	s.onInstall = func(line uint64, data []byte) {
		for _, m := range mems {
			m.Install(line, data)
		}
	}
}

// batch is one segment's writes, generated before the segment's clock
// starts.
type batch struct {
	lines []uint64
	data  []byte // the plaintexts, lineBytes each
	old   []byte // each line's plaintext before the write
}

func newBatch(n int) *batch {
	return &batch{lines: make([]uint64, n), data: make([]byte, n*lineBytes), old: make([]byte, n*lineBytes)}
}

func (b *batch) payload(i int) []byte { return b.data[i*lineBytes : (i+1)*lineBytes] }

// fill generates the next len(b.lines) writebacks.
func (s *specStream) fill(b *batch) {
	for i := range b.lines {
		r := s.next
		s.next = (s.next + 1) % len(s.gens)
		l, d := s.gens[r].NextWriteback(0)
		line := uint64(r*s.regionLines) + l
		b.lines[i] = line
		sh := s.shadow[line*lineBytes : (line+1)*lineBytes]
		copy(b.old[i*lineBytes:], sh)
		copy(sh, d)
		copy(b.payload(i), d)
	}
}

// warmup is the stream's first 2×lines writebacks and the installs they
// trigger, recorded once so every set-up repetition replays the same
// inputs.
type warmup struct {
	installs []uint64
	initial  []byte
	writes   *batch
}

func (s *specStream) warmup() *warmup {
	w := &warmup{writes: newBatch(2 * s.lines())}
	s.onInstall = func(line uint64, data []byte) {
		w.installs = append(w.installs, line)
		w.initial = append(w.initial, data...)
	}
	s.fill(w.writes)
	return w
}

// setUp builds a memory r.sc.setups times — construction, the warm-up's
// installs and its writes under the flush policy — and records each
// build's time as a setup_s sample. Every build but the last is released
// through discard; the last is returned for measuring.
func setUp(r *run, w *warmup, syncEvery int, open func() (lineMemory, error), discard func(lineMemory) error) (lineMemory, error) {
	var m lineMemory
	for i := 0; i < r.sc.setups; i++ {
		if m != nil {
			if err := discard(m); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		var err error
		if m, err = open(); err != nil {
			return nil, err
		}
		for j, line := range w.installs {
			m.Install(line, w.initial[j*lineBytes:(j+1)*lineBytes])
		}
		if _, _, _, err := writeSegment(m, w.writes, nil, syncEvery); err != nil {
			return nil, err
		}
		r.add("setup_s", time.Since(start).Seconds())
	}
	return m, nil
}

// writeSegment writes the batch through m, calling Sync after every
// syncEvery-th write (never when 0). A synced write's latency includes its
// Sync: that is what the caller waits for under the flush policy. lat, when
// non-nil, receives each write's latency.
func writeSegment(m lineMemory, b *batch, lat []time.Duration, syncEvery int) (wall time.Duration, flips, slots int64, err error) {
	start := time.Now()
	prev := start
	for i, line := range b.lines {
		info := m.Write(line, b.payload(i))
		flips += int64(info.BitFlips)
		slots += int64(info.WriteSlots)
		if syncEvery > 0 && (i+1)%syncEvery == 0 {
			if err := m.Sync(); err != nil {
				return 0, 0, 0, fmt.Errorf("sync: %w", err)
			}
		}
		if lat != nil {
			now := time.Now()
			lat[i] = now.Sub(prev)
			prev = now
		}
	}
	return time.Since(start), flips, slots, nil
}

// verifyLines reads every line back and checks it against the stream's
// shadow copy.
func verifyLines(r *run, m lineMemory, s *specStream, what string) {
	buf := make([]byte, lineBytes)
	var bad int64
	first := -1
	for line := 0; line < s.lines(); line++ {
		m.ReadInto(uint64(line), buf)
		if !bytes.Equal(buf, s.shadow[line*lineBytes:(line+1)*lineBytes]) {
			bad++
			if first < 0 {
				first = line
			}
		}
	}
	r.checkN(int64(s.lines()), bad, "%s: %d lines read back wrong (first: line %d)", what, bad, first)
}

// simulated accumulates the paper's figure of merit over the first
// r.sc.minSegments segments, which every run completes: flips and slots
// then depend on the seed alone, not on how fast the host was.
type simulated struct {
	writes, flips, slots int64
	segments             int
}

func (s *simulated) add(r *run, writes int, flips, slots int64) {
	if s.segments >= r.sc.minSegments {
		return
	}
	s.segments++
	s.writes += int64(writes)
	s.flips += flips
	s.slots += slots
}

func (s *simulated) report(r *run) {
	r.add("flips_per_write", perOp(s.flips, s.writes))
	r.add("slots_per_write", perOp(s.slots, s.writes))
}

// settle collects the garbage input generation left behind, so that no
// collection it triggered is still running when a segment's clock starts.
func settle() { runtime.GC() }

// segmentLoop runs seg(0), seg(1), ... until the run's measuring time is
// spent, and at least r.sc.minSegments (and at most max, when positive)
// times.
func (r *run) segmentLoop(max int, seg func(i int) error) error {
	deadline := time.Now().Add(r.seconds)
	for i := 0; ; i++ {
		if i >= r.sc.minSegments && !time.Now().Before(deadline) || max > 0 && i >= max {
			return nil
		}
		if err := seg(i); err != nil {
			return err
		}
		r.segments++
	}
}

// measureStream is the segment loop of the write-path workloads. Each
// segment's batch is generated off the clock; the untraced pass writes it
// through mem under the flush policy, the traced pass hands it to traced.
func measureStream(r *run, s *specStream, segment, syncEvery int, mem lineMemory, traced func(seg int, b *batch, lat []time.Duration) error) error {
	b := newBatch(segment)
	lat := make([]time.Duration, segment)
	var sim simulated
	err := r.segmentLoop(0, func(seg int) error {
		genStart := time.Now()
		s.fill(b)
		genNs := float64(time.Since(genStart)) / float64(segment)
		settle()
		if r.trace {
			r.add("workload.gen_ns", genNs)
			return traced(seg, b, lat)
		}
		wall, flips, slots, err := writeSegment(mem, b, lat, syncEvery)
		if err != nil {
			return err
		}
		r.addLatencies(lat, wall)
		sim.add(r, segment, flips, slots)
		return nil
	})
	if err == nil && !r.trace {
		sim.report(r)
	}
	return err
}

// writeBoth writes the batch through the untraced memory and the traced
// scheme, alternating which goes first each segment, and checks that both
// programmed the same cells and slots. It returns both wall times.
func writeBoth(r *run, seg int, b *batch, lat []time.Duration, mem, traced lineMemory, syncEvery int) (untraced, probed time.Duration, err error) {
	var flipsA, slotsA, flipsB, slotsB int64
	var errA, errB error
	runA := func() { untraced, flipsA, slotsA, errA = writeSegment(mem, b, lat, syncEvery) }
	runB := func() { probed, flipsB, slotsB, errB = writeSegment(traced, b, lat, syncEvery) }
	if seg%2 == 0 {
		runA()
		runB()
	} else {
		runB()
		runA()
	}
	if errA != nil {
		return 0, 0, errA
	}
	if errB != nil {
		return 0, 0, errB
	}
	r.check(flipsA == flipsB && slotsA == slotsB,
		"segment %d: traced scheme programmed %d cells in %d slots, untraced %d in %d", seg, flipsB, slotsB, flipsA, slotsA)
	return untraced, probed, nil
}

// isolatedLayers times the crypto and bit-counting kernels the write path
// is built from, called in isolation on the segment's own (line, counter,
// payload) stream: one pad per write, one counter increment, one Hamming
// distance between the line's old and new plaintext.
type isolatedLayers struct {
	gen  *otp.Generator
	ctrs *ctrstore.Store
	ctr  []uint64 // per-line write count, standing in for the counter
	pad  []byte
}

func newIsolatedLayers(lines int) (*isolatedLayers, error) {
	gen, err := otp.NewGenerator([]byte("deuce-asplos2015"))
	if err != nil {
		return nil, err
	}
	ctrs, err := ctrstore.New(lines, ctrstore.DefaultBits)
	if err != nil {
		return nil, err
	}
	return &isolatedLayers{gen: gen, ctrs: ctrs, ctr: make([]uint64, lines), pad: make([]byte, lineBytes)}, nil
}

var hammingSink int

func (l *isolatedLayers) measure(r *run, b *batch) {
	n := float64(len(b.lines))
	start := time.Now()
	for _, line := range b.lines {
		l.ctr[line]++
		l.gen.PadInto(l.pad, line, l.ctr[line])
	}
	r.add("otp.pad_ns", float64(time.Since(start))/n)

	start = time.Now()
	for _, line := range b.lines {
		l.ctrs.Increment(line)
	}
	r.add("ctrstore.increment_ns", float64(time.Since(start))/n)

	start = time.Now()
	h := 0
	for i := range b.lines {
		h += bitutil.Hamming(b.old[i*lineBytes:(i+1)*lineBytes], b.payload(i))
	}
	r.add("bitutil.hamming_line_ns", float64(time.Since(start))/n)
	hammingSink = h
}
