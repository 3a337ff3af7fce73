package backend_test

import (
	"math/rand"
	"testing"

	"deuce/internal/backend"
	"deuce/internal/core"
)

// counted counts the page writes and syncs that reach one backend.
type counted struct {
	backend.Backend
	writes, syncs int
}

func (c *counted) WritePage(page int, src []byte) error {
	c.writes++
	return c.Backend.WritePage(page, src)
}

func (c *counted) Sync() error {
	c.syncs++
	return c.Backend.Sync()
}

// TestJournalSyncPin pins what a journaled DEUCE memory flushes: between
// checkpoints, each Sync of the scheme issues exactly one log Sync per
// region and no data Sync, and a Sync with nothing written issues none.
func TestJournalSyncPin(t *testing.T) {
	// 4096 lines: eight 64-write intervals fit both regions' logs, so no
	// checkpoint falls inside the measured window.
	const lines, interval, intervals = 4096, 64, 8
	data := map[string]*counted{}
	logs := map[string]*counted{}
	p := core.Params{Lines: lines, MakeBackend: func(region string, pages, pageSize int) (backend.Backend, error) {
		data[region] = &counted{Backend: backend.NewMem(pages, pageSize)}
		logs[region] = &counted{Backend: backend.NewMem(backend.JournalPages(pages, pageSize), backend.JournalPageSize)}
		return backend.Journal(data[region], logs[region])
	}}
	s, err := core.New(core.KindDeuce, p)
	if err != nil {
		t.Fatal(err)
	}
	d := s.(core.Durable)
	defer d.Close()
	regions := []string{core.RegionArray, core.RegionCounters}
	type counts struct{ dataSyncs, logSyncs int }
	snapshot := func() map[string]counts {
		m := map[string]counts{}
		for _, r := range regions {
			m[r] = counts{data[r].syncs, logs[r].syncs}
		}
		return m
	}

	before := snapshot()
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	if after := snapshot(); after[core.RegionArray] != before[core.RegionArray] || after[core.RegionCounters] != before[core.RegionCounters] {
		t.Fatalf("Sync with nothing written: %v -> %v", before, after)
	}

	rng := rand.New(rand.NewSource(7))
	buf := make([]byte, 64)
	for i := 0; i < intervals; i++ {
		for w := 0; w < interval; w++ {
			rng.Read(buf[:8+rng.Intn(56)])
			s.Write(uint64(rng.Intn(lines)), buf)
		}
		before := snapshot()
		if err := d.Sync(); err != nil {
			t.Fatal(err)
		}
		after := snapshot()
		for _, r := range regions {
			if got := after[r].logSyncs - before[r].logSyncs; got != 1 {
				t.Errorf("interval %d: %s log synced %d times, want 1", i, r, got)
			}
			if got := after[r].dataSyncs - before[r].dataSyncs; got != 0 {
				t.Errorf("interval %d: %s data synced %d times, want 0", i, r, got)
			}
		}
	}
	if data[core.RegionCounters].writes == 0 || data[core.RegionArray].writes == 0 {
		t.Fatal("no page write reached a region")
	}
}
