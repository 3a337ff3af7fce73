package exp

import (
	"fmt"
	"math/rand"

	"deuce/internal/backend"
	"deuce/internal/core"
	"deuce/internal/integrity"
)

// Extension experiments: deterministic durability drills over the backend
// layer (DESIGN.md §13), gated alongside the paper figures but with
// structural expectations — every metric is a 0/1 indicator with zero
// tolerance, because the drills are exact by construction (seeded traces,
// simulated crashes, digest comparison), not calibrated measurements.
func Extensions() []Experiment {
	return []Experiment{
		{ID: "ext-eadr", Paper: "Extension: ADR vs eADR persistence domains — what a crash loses", table: plain(ExtEADR)},
		{ID: "ext-ctrrec", Paper: "Extension: counter-recovery drill — detect and localize a torn sync", table: plain(ExtCtrRec)},
	}
}

// drillScheme builds a DEUCE memory whose array and counter regions sit on
// CrashSim-wrapped in-memory backends, returning the two crash simulators
// for the drill to sync, tear and crash directly.
func drillScheme(lines int, passthrough bool) (core.Scheme, *backend.CrashSim, *backend.CrashSim, error) {
	var arrayCS, ctrCS *backend.CrashSim
	s, err := core.New(core.KindDeuce, core.Params{
		Lines: lines,
		MakeBackend: func(region string, pages, pageSize int) (backend.Backend, error) {
			cs := backend.NewCrashSim(backend.NewMem(pages, pageSize))
			cs.Passthrough = passthrough
			switch region {
			case core.RegionArray:
				arrayCS = cs
			case core.RegionCounters:
				ctrCS = cs
			}
			return cs, nil
		},
	})
	if err != nil {
		return nil, nil, nil, err
	}
	if arrayCS == nil || ctrCS == nil {
		return nil, nil, nil, fmt.Errorf("exp: drill backend regions not constructed")
	}
	return s, arrayCS, ctrCS, nil
}

// drillTrace writes n seeded random lines into s. Both drills (and their
// oracle twins) drive the identical trace, so divergence can only come
// from the crash being simulated.
func drillTrace(s core.Scheme, lines, n int, rng *rand.Rand) {
	buf := make([]byte, 64)
	for i := 0; i < n; i++ {
		l := uint64(rng.Intn(lines))
		rng.Read(buf)
		s.Write(l, buf)
	}
}

// bit converts a drill outcome into the 0/1 indicator the structural
// expectations gate on.
func bit(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// ExtEADR reproduces the persistence-domain distinction of modern NVM
// platforms: under ADR only what reached the media before the crash
// survives (writes queued past the last Sync are lost), while under eADR
// the domain covers the write queue and a crash loses nothing. The drill
// runs the same trace on both, syncs at the midpoint, keeps writing, then
// pulls the plug — and checks what the durable image recovered to.
func ExtEADR(rc RunConfig) (*Table, error) {
	rc.setDefaults()
	t := &Table{
		Title:   "Extension: persistence domain — ADR vs eADR crash loss",
		Note:    "trace synced at midpoint, crash at end; loss counted in whole backend pages",
		Columns: []string{"Domain", "Unsynced pages at crash", "Pages lost", "Recovered to last sync"},
	}
	half := rc.Writebacks / 2
	for _, mode := range []struct {
		label       string
		series      string
		passthrough bool
	}{
		{"ADR (flush on Sync only)", "adr", false},
		{"eADR (domain covers write queue)", "eadr", true},
	} {
		s, arrayCS, ctrCS, err := drillScheme(rc.Lines, mode.passthrough)
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(rc.Seed))
		drillTrace(s, rc.Lines, half, rng)
		if err := s.(core.Durable).Sync(); err != nil {
			return nil, err
		}
		// The durable image at the checkpoint, by digest: recovery after
		// an ADR crash must land exactly here.
		ckptArray, err := integrity.PageDigests(arrayCS.Inner())
		if err != nil {
			return nil, err
		}
		ckptCtr, err := integrity.PageDigests(ctrCS.Inner())
		if err != nil {
			return nil, err
		}
		drillTrace(s, rc.Lines, rc.Writebacks-half, rng)
		unsynced := arrayCS.Unsynced() + ctrCS.Unsynced()
		lost := arrayCS.Crash() + ctrCS.Crash()
		gotArray, err := integrity.PageDigests(arrayCS.Inner())
		if err != nil {
			return nil, err
		}
		gotCtr, err := integrity.PageDigests(ctrCS.Inner())
		if err != nil {
			return nil, err
		}
		atCkpt := len(integrity.DiffPages(ckptArray, gotArray)) == 0 &&
			len(integrity.DiffPages(ckptCtr, gotCtr)) == 0
		t.AddRow(mode.label, fmt.Sprintf("%d", unsynced), fmt.Sprintf("%d", lost),
			fmt.Sprintf("%t", atCkpt))
		t.SetValue("data_loss", mode.series, bit(lost > 0))
		t.SetValue("at_checkpoint", mode.series, bit(atCkpt))
	}
	return t, nil
}

// ExtCtrRec is the counter-recovery drill: a crash lands between the cell
// writeback and the counter writeback of one Sync (the tear direction
// core's Sync order makes possible — durable data, stale counters). On
// restart, per-page integrity digests recomputed from the durable image
// are compared against the digests the completed Sync would have produced;
// the drill must detect the tear, localize every mismatching page to the
// counter region, and raise nothing on a clean (fully synced) control.
func ExtCtrRec(rc RunConfig) (*Table, error) {
	rc.setDefaults()
	t := &Table{
		Title:   "Extension: counter-recovery drill — torn sync detection",
		Note:    "tear = cells flushed, counters not; localization by per-page digest diff",
		Columns: []string{"Scenario", "Array pages diverged", "Counter pages diverged", "Detected", "Localized to counters"},
	}
	half := rc.Writebacks / 2
	for _, sc := range []struct {
		label  string
		series string
		tear   bool
	}{
		{"torn sync (crash between cells and counters)", "tear", true},
		{"clean sync (control)", "clean", false},
	} {
		s, arrayCS, ctrCS, err := drillScheme(rc.Lines, false)
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(rc.Seed))
		drillTrace(s, rc.Lines, half, rng)
		if err := s.(core.Durable).Sync(); err != nil {
			return nil, err
		}
		drillTrace(s, rc.Lines, rc.Writebacks-half, rng)

		// The oracle twin: the same trace on plain in-memory backends,
		// fully synced — its digests are what the interrupted Sync was
		// about to make durable.
		var oArray, oCtr backend.Backend
		oracle, err := core.New(core.KindDeuce, core.Params{
			Lines: rc.Lines,
			MakeBackend: func(region string, pages, pageSize int) (backend.Backend, error) {
				m := backend.NewMem(pages, pageSize)
				switch region {
				case core.RegionArray:
					oArray = m
				case core.RegionCounters:
					oCtr = m
				}
				return m, nil
			},
		})
		if err != nil {
			return nil, err
		}
		orng := rand.New(rand.NewSource(rc.Seed))
		drillTrace(oracle, rc.Lines, rc.Writebacks, orng)
		if err := oracle.(core.Durable).Sync(); err != nil {
			return nil, err
		}
		wantArray, err := integrity.PageDigests(oArray)
		if err != nil {
			return nil, err
		}
		wantCtr, err := integrity.PageDigests(oCtr)
		if err != nil {
			return nil, err
		}

		// The interrupted Sync: cells always reach the media; counters
		// only in the control. Then the crash discards whatever the
		// write queue still held.
		if err := s.Device().Sync(); err != nil {
			return nil, err
		}
		if !sc.tear {
			if err := s.(core.Durable).Sync(); err != nil {
				return nil, err
			}
		}
		arrayCS.Crash()
		ctrCS.Crash()

		gotArray, err := integrity.PageDigests(arrayCS.Inner())
		if err != nil {
			return nil, err
		}
		gotCtr, err := integrity.PageDigests(ctrCS.Inner())
		if err != nil {
			return nil, err
		}
		arrayDiff := integrity.DiffPages(wantArray, gotArray)
		ctrDiff := integrity.DiffPages(wantCtr, gotCtr)
		detected := len(arrayDiff)+len(ctrDiff) > 0
		localized := detected && len(arrayDiff) == 0
		t.AddRow(sc.label, fmt.Sprintf("%d", len(arrayDiff)), fmt.Sprintf("%d", len(ctrDiff)),
			fmt.Sprintf("%t", detected), fmt.Sprintf("%t", localized))
		t.SetValue("detected", sc.series, bit(detected))
		if sc.tear {
			t.SetValue("located", "ctr_region", bit(localized))
		}
	}
	return t, nil
}
