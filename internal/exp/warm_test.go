package exp

import (
	"reflect"
	"sync"
	"testing"

	"deuce/internal/core"
	"deuce/internal/obs"
	"deuce/internal/pcmdev"
	"deuce/internal/timing"
	"deuce/internal/trace"
	"deuce/internal/wear"
	"deuce/internal/workload"
)

// setWarmReuse toggles the per-cell result caches. Only tests turn them
// off, so that every cell executes.
func setWarmReuse(enabled bool) { warmReuseOff.Store(!enabled) }

// uncachedRun executes fn with the result caches off and a cold cache, so
// every cell executes, then turns the caches back on for the caller.
func uncachedRun[T any](t *testing.T, fn func() (T, error)) T {
	t.Helper()
	setWarmReuse(false)
	ResetCache()
	defer func() {
		setWarmReuse(true)
		ResetCache()
	}()
	v, err := fn()
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// cachedRun executes fn with the result caches on, from a cold cache.
func cachedRun[T any](t *testing.T, fn func() (T, error)) T {
	t.Helper()
	setWarmReuse(true)
	ResetCache()
	ResetReuse()
	v, err := fn()
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// The live reference: the per-cell path the stream store replaced. A live
// generator installs each line through FirstTouch into a fresh scheme and
// drives its warmup and measured window directly. Every recorded-stream
// result, with the result caches on or off, must equal it.

// liveWarm returns a fresh scheme warmed through rc.Warmup writebacks by a
// live generator, and the generator parked at the measured window.
func liveWarm(t *testing.T, prof workload.Profile, kind core.Kind, params core.Params, rc RunConfig, topo warmTopology) (core.Scheme, *workload.Generator) {
	t.Helper()
	var s core.Scheme
	gen, err := workload.New(prof, workload.Config{
		Seed:        rc.Seed,
		CPUs:        topo.cpus,
		LinesPerCPU: topo.lpc,
		FirstTouch:  func(line uint64, initial []byte) { s.Install(line, initial) },
	})
	if err != nil {
		t.Fatal(err)
	}
	params.Lines = gen.Lines()
	params.Trace = rc.Trace
	s, err = core.New(kind, params)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rc.Warmup; i++ {
		s.Write(gen.NextWriteback(i % topo.cpus))
	}
	return s, gen
}

// liveFlips is RunFlips on a live generator, positions kept.
func liveFlips(t *testing.T, prof workload.Profile, kind core.Kind, params core.Params, rc RunConfig) FlipResult {
	t.Helper()
	rc.setDefaults()
	s, gen := liveWarm(t, prof, kind, params, rc, flipTopology(rc))
	s.Device().ResetStats()
	warm := s.Device().Stats()
	if rc.Trace != nil {
		rc.Trace.Reset()
	}
	for i := 0; i < rc.Writebacks; i++ {
		s.Write(gen.NextWriteback(0))
	}
	st := s.Device().Stats().Delta(warm)
	lineBits := float64(s.Device().Config().LineBits())
	return FlipResult{
		Workload:       prof.Name,
		Scheme:         s.Name(),
		FlipFrac:       st.AvgFlipsPerWrite() / lineBits,
		DataFlipFrac:   float64(st.DataFlips) / float64(st.Writes) / lineBits,
		SlotAvg:        st.AvgSlotsPerWrite(),
		Writes:         st.Writes,
		PositionWrites: s.Device().PositionWrites(),
	}
}

// livePerf is RunPerf on a live generator (no counter cache).
func livePerf(t *testing.T, prof workload.Profile, kind core.Kind, rc RunConfig) PerfResult {
	t.Helper()
	rc.setDefaults()
	s, gen := liveWarm(t, prof, kind, core.Params{}, rc, perfTopology(rc))
	s.Device().ResetStats()
	warm := s.Device().Stats()
	events := int(float64(rc.Writebacks) * (prof.MPKI + prof.WBPKI) / prof.WBPKI)
	sim, err := timing.NewSimulator(timing.Config{
		Cores:              perfCPUs,
		MaxConcurrentSlots: budgetSlots,
		WritePausing:       rc.WritePausing,
		ReadLatencyNs:      rc.ReadLatencyNs,
	}, &limitSource{inner: gen, remaining: events}, timing.SlotCosterFunc(func(line uint64, data []byte) int {
		return s.Write(line, data).Slots
	}))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(1 << 30)
	if err != nil {
		t.Fatal(err)
	}
	return PerfResult{Workload: prof.Name, Scheme: s.Name(), Timing: res,
		BitFlips: s.Device().Stats().Delta(warm).TotalFlips()}
}

// liveWear is RunWear on a live generator.
func liveWear(t *testing.T, prof workload.Profile, kind core.Kind, mode wear.Mode, psi int, rc RunConfig) WearResult {
	t.Helper()
	params := core.Params{MakeArray: func(cfg pcmdev.Config) (pcmdev.Array, error) {
		s, err := wear.NewStartGap(cfg, wear.StartGapConfig{Mode: mode, Psi: psi, FreeGapMoves: true})
		if err != nil {
			return nil, err
		}
		return s.Device(), nil
	}}
	res := liveFlips(t, prof, kind, params, rc)
	wp, err := wear.Analyze(res.PositionWrites, res.Writes)
	if err != nil {
		t.Fatal(err)
	}
	return WearResult{FlipResult: res, Profile: wp}
}

// TestWarmFlipBitIdentical: flip cells replayed from the recorded stream,
// with the result caches on and off, must equal the live reference across
// schemes, seeds and geometries. Every kind after the first replays a
// stream another kind recorded.
func TestWarmFlipBitIdentical(t *testing.T) {
	profs := []string{"mcf", "libq"}
	kinds := []core.Kind{core.KindDeuce, core.KindEncrFNW, core.KindDynDeuce, core.KindINVMM}
	for _, seed := range []int64{0, 9} {
		for _, lines := range []int{64, 128} {
			rc := RunConfig{Writebacks: 400, Lines: lines, Seed: seed}
			for _, pn := range profs {
				prof, err := workload.ByName(pn)
				if err != nil {
					t.Fatal(err)
				}
				for _, kind := range kinds {
					live := liveFlips(t, prof, kind, core.Params{}, rc)
					uncached := uncachedRun(t, func() (FlipResult, error) {
						return RunFlips(prof, kind, core.Params{}, rc, true)
					})
					cached := cachedRun(t, func() (FlipResult, error) {
						return RunFlips(prof, kind, core.Params{}, rc, true)
					})
					if !reflect.DeepEqual(live, uncached) || !reflect.DeepEqual(live, cached) {
						t.Errorf("%s/%s seed=%d lines=%d: replayed result diverges\n live:     %+v\n uncached: %+v\n cached:   %+v",
							pn, kind, seed, lines, live, uncached, cached)
					}
				}
			}
		}
	}
	ResetCache()
}

// TestWarmTracedFlipMatchesLive: a traced cell bypasses the result
// caches; with them on and off, its result and its measured-window trace
// must match the live reference's.
func TestWarmTracedFlipMatchesLive(t *testing.T) {
	prof, err := workload.ByName("astar")
	if err != nil {
		t.Fatal(err)
	}
	rc := RunConfig{Writebacks: 300, Lines: 64, Seed: 6}
	rc.Trace = obs.NewTrace(1000, 1)
	live := liveFlips(t, prof, core.KindDeuce, core.Params{}, rc)
	liveEvents := rc.Trace.Events()
	t.Cleanup(ResetCache)
	for _, run := range []struct {
		name string
		fn   func(*testing.T, func() (FlipResult, error)) FlipResult
	}{{"uncached", uncachedRun[FlipResult]}, {"cached", cachedRun[FlipResult]}} {
		rc.Trace = obs.NewTrace(1000, 1)
		got := run.fn(t, func() (FlipResult, error) {
			return RunFlips(prof, core.KindDeuce, core.Params{}, rc, true)
		})
		if !reflect.DeepEqual(live, got) {
			t.Errorf("%s traced cell diverges\n live: %+v\n got:  %+v", run.name, live, got)
		}
		if !reflect.DeepEqual(liveEvents, rc.Trace.Events()) {
			t.Errorf("%s traced cell recorded a different event trace", run.name)
		}
	}
}

// TestWarmPerfBitIdentical: timed cells replayed from the recorded event
// stream, with the result caches on and off, must equal the live
// reference.
func TestWarmPerfBitIdentical(t *testing.T) {
	for _, pn := range []string{"mcf", "libq"} {
		prof, err := workload.ByName(pn)
		if err != nil {
			t.Fatal(err)
		}
		for _, kind := range []core.Kind{core.KindDeuce, core.KindEncrFNW} {
			rc := RunConfig{Writebacks: 400, Lines: 64, Seed: 3}
			live := livePerf(t, prof, kind, rc)
			uncached := uncachedRun(t, func() (PerfResult, error) {
				return RunPerf(prof, kind, core.Params{}, rc)
			})
			cached := cachedRun(t, func() (PerfResult, error) {
				return RunPerf(prof, kind, core.Params{}, rc)
			})
			if live != uncached || live != cached {
				t.Errorf("%s/%s: replayed perf diverges\n live:     %+v\n uncached: %+v\n cached:   %+v",
					pn, kind, live, uncached, cached)
			}
		}
	}
	ResetCache()
}

// TestWarmWearBitIdentical: wear cells replay the recorded stream behind
// a wrapped array and are memoized; uncached and memoized results must
// equal the live reference, and the wear profile must be a caller-owned
// copy.
func TestWarmWearBitIdentical(t *testing.T) {
	prof, err := workload.ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	rc := RunConfig{Writebacks: 2000, Lines: 64, Seed: 2}
	live := liveWear(t, prof, core.KindDeuce, wear.VWLOnly, 1, rc)
	uncached := uncachedRun(t, func() (WearResult, error) {
		return RunWear(prof, core.KindDeuce, core.Params{}, wear.VWLOnly, 1, rc)
	})
	cached := cachedRun(t, func() (WearResult, error) {
		return RunWear(prof, core.KindDeuce, core.Params{}, wear.VWLOnly, 1, rc)
	})
	t.Cleanup(ResetCache)
	if !reflect.DeepEqual(live, uncached) || !reflect.DeepEqual(live, cached) {
		t.Errorf("replayed wear cell diverges from the live reference")
	}
	again, err := RunWear(prof, core.KindDeuce, core.Params{}, wear.VWLOnly, 1, rc)
	if err != nil {
		t.Fatal(err)
	}
	again.PositionWrites[0]++ // must not corrupt the cache
	final, err := RunWear(prof, core.KindDeuce, core.Params{}, wear.VWLOnly, 1, rc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(live.PositionWrites, final.PositionWrites) {
		t.Error("mutating a returned wear profile corrupted the cached copy")
	}
}

// TestWarmDisabledRestoresColdCounting: with the result caches off, every
// cell must execute and warm up for itself. This proves uncachedRun
// really executes its cells, which is what makes the TestWarm*BitIdentical
// suites compare a computed result rather than a cached one.
func TestWarmDisabledRestoresColdCounting(t *testing.T) {
	prof, err := workload.ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	rc := RunConfig{Writebacks: 200, Lines: 64, Seed: 8}
	setWarmReuse(false)
	ResetCache()
	ResetReuse()
	defer func() {
		setWarmReuse(true)
		ResetCache()
	}()
	before := RunFlipsCalls()
	for i := 0; i < 2; i++ {
		if _, err := RunFlips(prof, core.KindDeuce, core.Params{}, rc, false); err != nil {
			t.Fatal(err)
		}
	}
	if got := RunFlipsCalls() - before; got != 2 {
		t.Errorf("reuse disabled: expected 2 executions, got %d", got)
	}
	if r := Reuse(); r.ColdWarmups != 2 {
		t.Errorf("expected 2 cold warmups, got %d", r.ColdWarmups)
	}
}

// streamCase is one recorded-stream shape the store tests cover.
type streamCase struct {
	name string
	topo func(RunConfig) warmTopology
}

var streamCases = []streamCase{{"flip", flipTopology}, {"timed", perfTopology}}

// freshStream records prof's stream for rc and topo from an empty cache
// with n measured writes (timed: events) and returns the entry and a view.
func freshStream(t *testing.T, prof workload.Profile, rc RunConfig, topo warmTopology, n int) (*warmEntry, stream) {
	t.Helper()
	ResetCache()
	e, st, err := streamFor(prof, rc, topo, n)
	if err != nil {
		t.Fatal(err)
	}
	return e, st
}

// TestStreamExtendEqualsOneShot: a recording extended in two steps must
// equal one recorded in one step, installs and timed events included.
func TestStreamExtendEqualsOneShot(t *testing.T) {
	prof, err := workload.ByName("omnetpp")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ResetCache)
	rc := RunConfig{Lines: 64, Seed: 4}
	rc.setDefaults()
	for _, sc := range streamCases {
		topo := sc.topo(rc)
		e, short := freshStream(t, prof, rc, topo, 300)
		long := e.window(nil, 1700)
		_, one := freshStream(t, prof, rc, topo, 1700)
		if !reflect.DeepEqual(long, one) {
			t.Errorf("%s: two-step recording differs from a one-step one", sc.name)
		}
		if !isPrefix(short, one) {
			t.Errorf("%s: a shorter view is not a prefix of the longer recording", sc.name)
		}
		installs := 0
		for _, l := range one.lines {
			if l&opInstall != 0 {
				installs++
			}
		}
		if installs == 0 || installs > topo.lines() {
			t.Errorf("%s: %d installs recorded for a %d-line stream", sc.name, installs, topo.lines())
		}
	}
}

// isPrefix reports whether every slice of a is a prefix of b's.
func isPrefix(a, b stream) bool {
	return len(a.lines) <= len(b.lines) && reflect.DeepEqual(a.lines, b.lines[:len(a.lines)]) &&
		len(a.data) <= len(b.data) && string(a.data) == string(b.data[:len(a.data)]) &&
		len(a.events) <= len(b.events) && reflect.DeepEqual(a.events, b.events[:len(a.events)])
}

// TestStreamConcurrentPrefixes: cells asking one entry for windows of
// different lengths at once each get a prefix of the one-shot recording,
// and replaying a view while another cell extends the recording is
// race-free (run under -race via the Makefile's race-timing target).
func TestStreamConcurrentPrefixes(t *testing.T) {
	prof, err := workload.ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ResetCache)
	rc := RunConfig{Lines: 64, Seed: 11}
	rc.setDefaults()
	for _, sc := range streamCases {
		topo := sc.topo(rc)
		_, want := freshStream(t, prof, rc, topo, 2400)
		ResetCache()
		var wg sync.WaitGroup
		views := make([]stream, 8)
		for i := range views {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				n := 300 * (len(views) - i)
				_, st, err := streamFor(prof, rc, topo, n)
				if err != nil {
					t.Error(err)
					return
				}
				// Replay the whole view while others extend the recording.
				s, err := core.New(core.KindEncrDCW, core.Params{Lines: topo.lines()})
				if err != nil {
					t.Error(err)
					return
				}
				c := warmUp(st, s, rc.Warmup)
				if topo.timed {
					for k := 0; k < n; k++ {
						ev, err := c.Next()
						if err != nil {
							t.Error(err)
							return
						}
						if ev.Kind == trace.Writeback {
							s.Write(ev.Line, ev.Data)
						}
					}
				} else {
					for k := 0; k < n; k++ {
						line, data, _ := c.next()
						s.Write(line, data)
					}
				}
				views[i] = st
			}(i)
		}
		wg.Wait()
		for i, v := range views {
			if !isPrefix(v, want) {
				t.Errorf("%s: concurrent view %d is not a prefix of the one-shot recording", sc.name, i)
			}
		}
	}
}
