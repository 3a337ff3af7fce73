package exp

import (
	"fmt"

	"deuce/internal/cache"
	"deuce/internal/core"
	"deuce/internal/pcmdev"
	"deuce/internal/trace"
	"deuce/internal/workload"
)

// AblCacheSim validates the direct workload models against the cache
// hierarchy substrate: the same benchmark's access stream is pushed
// through the scaled L1-L4 hierarchy and the *evicted* writeback stream —
// re-ordered, coalesced and filtered by LRU — is measured instead. The
// DEUCE-relevant statistics (flip fractions per scheme, and therefore the
// scheme ordering) must survive cache filtering, because writeback
// sparsity is a property of how programs mutate lines, not of when the
// cache chooses to spill them.
func AblCacheSim(rc RunConfig) (*Table, error) {
	rc.setDefaults()
	t := &Table{
		Title:   "Validation: direct writeback model vs cache-hierarchy-derived stream",
		Note:    "flips per write for DEUCE and Encr_DCW; the sparse structure must survive LRU filtering",
		Columns: []string{"Workload", "DEUCE direct", "DEUCE via caches", "Encr direct", "Encr via caches"},
	}
	for _, name := range []string{"libq", "mcf", "lbm", "omnetpp"} {
		prof, err := workload.ByName(name)
		if err != nil {
			return nil, err
		}
		dDirect, err := RunFlips(prof, core.KindDeuce, core.Params{}, rc, false)
		if err != nil {
			return nil, err
		}
		eDirect, err := RunFlips(prof, core.KindEncrDCW, core.Params{}, rc, false)
		if err != nil {
			return nil, err
		}
		dCache, err := runThroughCaches(prof, core.KindDeuce, rc)
		if err != nil {
			return nil, err
		}
		eCache, err := runThroughCaches(prof, core.KindEncrDCW, rc)
		if err != nil {
			return nil, err
		}
		t.AddRow(name, pct(dDirect.FlipFrac), pct(dCache.FlipFrac),
			pct(eDirect.FlipFrac), pct(eCache.FlipFrac))
	}
	return t, nil
}

// pow2Floor rounds n down to a power of two, with a floor.
func pow2Floor(n, floor int) int {
	if n < floor {
		return floor
	}
	p := floor
	for p*2 <= n {
		p *= 2
	}
	return p
}

// runThroughCaches drives a workload's raw stream into the hierarchy and
// replays the emitted PCM writeback stream into a scheme.
func runThroughCaches(prof workload.Profile, kind core.Kind, rc RunConfig) (FlipResult, error) {
	gen, err := workload.New(prof, workload.Config{Seed: rc.Seed, LinesPerCPU: rc.Lines})
	if err != nil {
		return FlipResult{}, err
	}
	// Levels scale with the working set so the L4 holds roughly a
	// quarter of it — large enough to filter, small enough to spill.
	ws := rc.Lines * 64
	h, err := cache.NewHierarchy(cache.HierarchyConfig{
		Cores:     1,
		L1:        cache.Config{SizeBytes: pow2Floor(ws/64, 1<<10), Ways: 8},
		L2:        cache.Config{SizeBytes: pow2Floor(ws/32, 1<<10), Ways: 8},
		L3:        cache.Config{SizeBytes: pow2Floor(ws/16, 1<<10), Ways: 8},
		L4PerCore: cache.Config{SizeBytes: pow2Floor(ws/4, 1<<10), Ways: 8},
	})
	if err != nil {
		return FlipResult{}, err
	}
	s, err := core.New(kind, core.Params{Lines: gen.Lines()})
	if err != nil {
		return FlipResult{}, err
	}

	installed := make(map[uint64]bool)
	h.Sink = func(_ int, ev cache.Eviction) {
		if ev.Data == nil {
			return
		}
		if !installed[ev.Line] {
			installed[ev.Line] = true
			s.Install(ev.Line, ev.Data)
			return
		}
		s.Write(ev.Line, ev.Data)
	}

	// Feed raw events; the generator's own writebacks act as the store
	// stream into L1 (the hierarchy decides what reaches PCM and when).
	var warm pcmdev.Stats
	total := rc.Warmup + rc.Writebacks
	for emitted := 0; emitted < total; {
		e, err := gen.Next()
		if err != nil {
			return FlipResult{}, err
		}
		if e.Kind == trace.Writeback {
			h.Access(0, e.Line, true, e.Data)
			emitted++
			if emitted == rc.Warmup {
				s.Device().ResetStats()
				warm = s.Device().Stats()
			}
		} else {
			// Read misses hit a disjoint region; fold them into the
			// same hierarchy to exercise eviction pressure.
			h.Access(0, e.Line, false, nil)
		}
	}

	st := s.Device().Stats().Delta(warm)
	if st.Writes == 0 {
		return FlipResult{}, fmt.Errorf("exp: hierarchy emitted no measured writebacks for %s", prof.Name)
	}
	lineBits := float64(s.Device().Config().LineBits())
	return FlipResult{
		Workload: prof.Name,
		Scheme:   s.Name(),
		FlipFrac: st.AvgFlipsPerWrite() / lineBits,
		SlotAvg:  st.AvgSlotsPerWrite(),
		Writes:   st.Writes,
	}, nil
}
