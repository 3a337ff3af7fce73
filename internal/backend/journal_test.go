package backend

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// TestJournalReopen pins the file-backed journal's durability: what a Sync
// covered, and what was written after it before a clean Close, is there
// after reopen, across checkpoints and with a non-empty log to replay.
func TestJournalReopen(t *testing.T) {
	const pages, pageSize = 16, 100
	root := t.TempDir()
	open := func() *Journaled {
		t.Helper()
		data, err := OpenFile(filepath.Join(root, "a.pg"), pages, pageSize)
		if err != nil {
			t.Fatal(err)
		}
		j, err := OpenJournal(filepath.Join(root, "a.jnl"), data)
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	rng := rand.New(rand.NewSource(3))
	shadow := make([][]byte, pages)
	for p := range shadow {
		shadow[p] = make([]byte, pageSize)
	}
	j := open()
	gens := []uint64{j.gen}
	for round := 0; round < 6; round++ {
		for i := 0; i < 150; i++ {
			p := rng.Intn(pages)
			off := rng.Intn(pageSize)
			rng.Read(shadow[p][off : off+rng.Intn(pageSize-off)+1])
			if err := j.WritePage(p, shadow[p]); err != nil {
				t.Fatal(err)
			}
			if i%5 == 4 {
				if err := j.Sync(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if round%2 == 0 {
			if err := j.Sync(); err != nil {
				t.Fatal(err)
			}
		}
		if j.tail == 0 && round%2 == 0 {
			t.Fatalf("round %d: synced journal has an empty log; the reopen replays nothing", round)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		j = open()
		gens = append(gens, j.gen)
		got := make([]byte, pageSize)
		for p := range shadow {
			if err := j.ReadPage(p, got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, shadow[p]) {
				t.Fatalf("round %d: page %d lost across close and reopen", round, p)
			}
		}
	}
	defer j.Close()
	// Each reopen checkpoints once; more generations than reopens means the
	// trace overflowed the log and checkpointed on its own.
	if span := gens[len(gens)-1] - gens[0]; span <= uint64(len(gens)-1) {
		t.Fatalf("generations %v: no forced checkpoint crossed", gens)
	}
}

// TestJournalIdle pins the cheap paths: a Sync with nothing written, and a
// write that changes nothing, reach neither backend.
func TestJournalIdle(t *testing.T) {
	const pages, pageSize = 4, 64
	data := &countingBackend{Backend: NewMem(pages, pageSize)}
	log := &countingBackend{Backend: NewMem(JournalPages(pages, pageSize), JournalPageSize)}
	j, err := Journal(data, log)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	*data, *log = countingBackend{Backend: data.Backend}, countingBackend{Backend: log.Backend}
	if err := j.WritePage(2, make([]byte, pageSize)); err != nil {
		t.Fatal(err)
	}
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	if data.writes+data.syncs+log.writes+log.syncs != 0 {
		t.Fatalf("idle write+Sync issued data %d writes %d syncs, log %d writes %d syncs",
			data.writes, data.syncs, log.writes, log.syncs)
	}
}

// countingBackend counts the page writes and syncs that reach a backend.
type countingBackend struct {
	Backend
	writes, syncs int
}

func (c *countingBackend) WritePage(page int, src []byte) error {
	c.writes++
	return c.Backend.WritePage(page, src)
}

func (c *countingBackend) Sync() error {
	c.syncs++
	return c.Backend.Sync()
}

var errCrashed = errors.New("crashed")

// crashPoint is a CrashSim whose WritePage and Sync calls draw on a budget
// shared with its sibling: once the budget is spent every later call fails
// with errCrashed and changes nothing, so the crash falls exactly after
// the budget's last call.
type crashPoint struct {
	*CrashSim
	budget *int
}

func (c crashPoint) spend() error {
	if *c.budget == 0 {
		return errCrashed
	}
	*c.budget--
	return nil
}

func (c crashPoint) WritePage(page int, src []byte) error {
	if err := c.spend(); err != nil {
		return err
	}
	return c.CrashSim.WritePage(page, src)
}

func (c crashPoint) Sync() error {
	if err := c.spend(); err != nil {
		return err
	}
	return c.CrashSim.Sync()
}

// journalOp is one step of the recorded crash trace: a page write, or a
// Sync when data is nil.
type journalOp struct {
	page int
	data []byte
}

// TestJournalCrashPoints enumerates crashes: data and log on CrashSim(Mem),
// a recorded trace of writes and Syncs that forces checkpoints, and a crash
// after every WritePage and Sync either backend receives — then again after
// every call of the reopen that recovers from it, replay and checkpoint
// included. After the final reopen every page must hold its value as of the
// last completed Sync or a value written after it, and exactly the synced
// value when nothing was written since.
func TestJournalCrashPoints(t *testing.T) {
	const pages, pageSize = 8, 200 // 200: pages end in a partial word
	rng := rand.New(rand.NewSource(5))
	var trace []journalOp
	cur := make([][]byte, pages)
	for p := range cur {
		cur[p] = make([]byte, pageSize)
	}
	// Mostly short runs, so a page that a replayed extent rolls back only
	// in part shows as a mix of values no write ever stored; and no Sync
	// in writes [150, 240), the stretch that overflows the log, so the
	// forced checkpoint finds many unsynced writes.
	for i := 0; i < 280; i++ {
		p := rng.Intn(pages)
		next := bytes.Clone(cur[p])
		if rng.Intn(20) == 0 {
			rng.Read(next)
		} else {
			off := rng.Intn(pageSize - 24)
			rng.Read(next[off : off+1+rng.Intn(24)])
		}
		cur[p] = next
		trace = append(trace, journalOp{page: p, data: next})
		if i%6 == 5 && (i < 150 || i >= 240) {
			trace = append(trace, journalOp{})
		}
	}
	trace = append(trace, journalOp{})

	type world struct {
		data, log *CrashSim
		budget    int
	}
	newWorld := func() *world {
		return &world{
			data: NewCrashSim(NewMem(pages, pageSize)),
			log:  NewCrashSim(NewMem(JournalPages(pages, pageSize), JournalPageSize)),
		}
	}
	open := func(w *world, budget int) (*Journaled, error) {
		w.budget = budget
		return Journal(crashPoint{w.data, &w.budget}, crashPoint{w.log, &w.budget})
	}
	// run replays the trace with a budget of calls and returns the model
	// of the last crash: the synced value of every page and the values
	// written since.
	run := func(w *world, budget int) (synced [][]byte, later [][][]byte, crashed bool) {
		j, err := open(w, -1)
		if err != nil {
			t.Fatal(err)
		}
		w.budget = budget
		synced = make([][]byte, pages)
		for p := range synced {
			synced[p] = make([]byte, pageSize)
		}
		later = make([][][]byte, pages)
		for _, op := range trace {
			if op.data == nil {
				if err := j.Sync(); err != nil {
					if !errors.Is(err, errCrashed) {
						t.Fatal(err)
					}
					return synced, later, true
				}
				for p := range later {
					if n := len(later[p]); n > 0 {
						synced[p] = later[p][n-1]
					}
					later[p] = nil
				}
				continue
			}
			later[op.page] = append(later[op.page], op.data)
			if err := j.WritePage(op.page, op.data); err != nil {
				if !errors.Is(err, errCrashed) {
					t.Fatal(err)
				}
				return synced, later, true
			}
		}
		return synced, later, false
	}

	// A clean run counts the calls and proves the trace checkpoints.
	clean := newWorld()
	if _, _, crashed := run(clean, -1); crashed {
		t.Fatal("unbudgeted run crashed")
	}
	if clean.data.Syncs() < 2 {
		t.Fatalf("trace reached %d data syncs; it must force a checkpoint past the one at open", clean.data.Syncs())
	}
	calls := -1 - clean.budget

	// Each crash point's durable images are taken once; every reopen crash
	// point restarts from a copy of them.
	image := func(c *CrashSim) []byte { return bytes.Clone(c.Inner().(*Mem).buf) }
	restore := func(dataImg, logImg []byte) *world {
		w := newWorld()
		copy(w.data.Inner().(*Mem).buf, dataImg)
		copy(w.log.Inner().(*Mem).buf, logImg)
		return w
	}
	got := make([]byte, pageSize)
	scenarios := 0
	for k := 0; k <= calls; k++ {
		w := newWorld()
		synced, later, _ := run(w, k)
		w.data.Crash()
		w.log.Crash()
		dataImg, logImg := image(w.data), image(w.log)
		// A clean recovery counts the reopen's calls.
		if _, err := open(w, -1); err != nil {
			t.Fatalf("crash at call %d: reopen: %v", k, err)
		}
		recoverCalls := -1 - w.budget
		for m := 0; m <= recoverCalls; m++ {
			w := restore(dataImg, logImg)
			if _, err := open(w, m); err != nil {
				if !errors.Is(err, errCrashed) {
					t.Fatalf("crash at call %d, reopen crash at %d: %v", k, m, err)
				}
				w.data.Crash()
				w.log.Crash()
			}
			j, err := open(w, -1)
			if err != nil {
				t.Fatalf("crash at call %d, reopen crash at %d: final reopen: %v", k, m, err)
			}
			for p := 0; p < pages; p++ {
				if err := j.ReadPage(p, got); err != nil {
					t.Fatal(err)
				}
				ok := bytes.Equal(got, synced[p])
				for _, v := range later[p] {
					ok = ok || bytes.Equal(got, v)
				}
				switch {
				case !ok && len(later[p]) == 0:
					t.Fatalf("crash at call %d, reopen crash at %d: page %d differs from its value at the last completed Sync, and nothing was written since", k, m, p)
				case !ok:
					t.Fatalf("crash at call %d, reopen crash at %d: page %d holds neither its synced value nor a later write", k, m, p)
				}
			}
			scenarios++
		}
	}
	t.Logf("%d trace calls, %d crash scenarios", calls, scenarios)
}

// journalRecord encodes one record of extents for the fuzz seeds.
func journalRecord(gen uint64, extents ...[]byte) []byte {
	var payload []byte
	for _, e := range extents {
		payload = append(payload, e...)
	}
	rec := make([]byte, recordHeader, recordHeader+len(payload))
	binary.LittleEndian.PutUint64(rec, gen)
	binary.LittleEndian.PutUint32(rec[8:], uint32(len(payload)))
	rec = append(rec, payload...)
	binary.LittleEndian.PutUint32(rec[12:], crc32.Update(crc32.ChecksumIEEE(rec[:12]), crc32.IEEETable, payload))
	return rec
}

func journalExtent(page uint64, off, n uint32, fill byte) []byte {
	e := make([]byte, extentHeader, extentHeader+int(n))
	binary.LittleEndian.PutUint64(e, page)
	binary.LittleEndian.PutUint32(e[8:], off)
	binary.LittleEndian.PutUint32(e[12:], n)
	return append(e, bytes.Repeat([]byte{fill}, int(n))...)
}

// FuzzJournalReplay opens a journal over an arbitrary log: a fuzzed header
// page and record area, with the header's and every current-generation
// record's CRC recomputed when fix is set, so the fuzzer reaches the
// geometry and extent checks behind them. Journal must never panic, every
// error must be typed, replay must write nothing outside data's geometry
// (Mem refuses such a write with an untyped error), and an accepted log,
// having checkpointed, must reopen without changing data.
func FuzzJournalReplay(f *testing.F) {
	const pages, pageSize = 4, 72
	logPages := JournalPages(pages, pageSize)

	// A real session's log, left unclosed as a crash leaves it.
	j, err := Journal(NewMem(pages, pageSize), NewMem(logPages, JournalPageSize))
	if err != nil {
		f.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	buf := make([]byte, pageSize)
	for i := 0; i < 12; i++ {
		rng.Read(buf[:rng.Intn(pageSize)+1])
		if err := j.WritePage(i%pages, buf); err != nil {
			f.Fatal(err)
		}
		if i%4 == 3 {
			if err := j.Sync(); err != nil {
				f.Fatal(err)
			}
		}
	}
	raw := make([]byte, logPages*JournalPageSize)
	for p := 0; p < logPages; p++ {
		if err := j.log.ReadPage(p, raw[p*JournalPageSize:(p+1)*JournalPageSize]); err != nil {
			f.Fatal(err)
		}
	}
	hdr, area := raw[:40], raw[JournalPageSize:]
	gen := j.gen
	used := j.tail
	for _, fix := range []bool{false, true} {
		f.Add(bytes.Clone(hdr), bytes.Clone(area[:used]), fix)
		f.Add([]byte{}, []byte{}, fix)
		f.Add(bytes.Clone(hdr), []byte{}, fix)
		f.Add(bytes.Clone(hdr[:20]), bytes.Clone(area[:used]), fix)
		for _, off := range []int{0, 8, 12, 16, 24, 40} {
			cut := bytes.Clone(area[:used])
			cut[off] ^= 0x40
			f.Add(bytes.Clone(hdr), cut, fix)
		}
		for _, ext := range [][]byte{
			journalExtent(pages, 0, 8, 1),         // page past the end
			journalExtent(0, pageSize-4, 8, 2),    // runs off the page
			journalExtent(1, 1<<31, 4, 3),         // offset overflow
			journalExtent(2, 0, 0, 4),             // empty extent
			journalExtent(3, 0, pageSize, 5)[:30], // cut payload
			journalExtent(1<<63, 0, 8, 6),         // huge page
			journalExtent(0, 0, pageSize, 7),      // valid
		} {
			f.Add(bytes.Clone(hdr), journalRecord(gen, ext), fix)
		}
	}
	f.Fuzz(func(t *testing.T, hdr, area []byte, fix bool) {
		data := NewMem(pages, pageSize)
		log := NewMem(logPages, JournalPageSize)
		page0 := log.Page(0)
		copy(page0, hdr)
		rec := make([]byte, (logPages-1)*JournalPageSize)
		copy(rec, area)
		if fix {
			binary.LittleEndian.PutUint32(page0[32:], crc32.ChecksumIEEE(page0[:32]))
			g := binary.LittleEndian.Uint64(page0[8:])
			for off := 0; off+recordHeader <= len(rec); {
				h := rec[off:]
				n := int(binary.LittleEndian.Uint32(h[8:]))
				if binary.LittleEndian.Uint64(h) != g || n > len(rec)-off-recordHeader {
					break
				}
				binary.LittleEndian.PutUint32(h[12:], crc32.Update(crc32.ChecksumIEEE(h[:12]), crc32.IEEETable, h[recordHeader:recordHeader+n]))
				off += recordHeader + n
			}
		}
		for p := 1; p < logPages; p++ {
			copy(log.Page(p), rec[(p-1)*JournalPageSize:])
		}
		if _, err := Journal(data, log); err != nil {
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrGeometry) {
				t.Fatalf("untyped error %v", err)
			}
			return
		}
		before := bytes.Clone(data.buf)
		if _, err := Journal(data, log); err != nil {
			t.Fatalf("reopen after an accepted log: %v", err)
		}
		if !bytes.Equal(before, data.buf) {
			t.Fatal("reopen after a checkpoint changed data")
		}
	})
}

// TestOpenJournalFailurePaths pins the typed open-time errors: a damaged
// log header is ErrCorrupt, and a log sized or written for another data
// geometry ErrGeometry.
func TestOpenJournalFailurePaths(t *testing.T) {
	const pages, pageSize = 8, 64
	mk := func(t *testing.T) (root string) {
		root = t.TempDir()
		data, err := OpenFile(filepath.Join(root, "a.pg"), pages, pageSize)
		if err != nil {
			t.Fatal(err)
		}
		j, err := OpenJournal(filepath.Join(root, "a.jnl"), data)
		if err != nil {
			t.Fatal(err)
		}
		if err := j.WritePage(1, bytes.Repeat([]byte{9}, pageSize)); err != nil {
			t.Fatal(err)
		}
		if err := j.Sync(); err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		return root
	}
	reopen := func(root string, pages int) error {
		data, err := OpenFile(filepath.Join(root, "b.pg"), pages, pageSize)
		if err != nil {
			return err
		}
		j, err := OpenJournal(filepath.Join(root, "a.jnl"), data)
		if err == nil {
			j.Close()
		}
		return err
	}
	t.Run("corrupt-header", func(t *testing.T) {
		root := mk(t)
		f, err := os.OpenFile(filepath.Join(root, "a.jnl"), os.O_RDWR, 0)
		if err != nil {
			t.Fatal(err)
		}
		// Byte 9 of the log page is inside the generation; the CRC no
		// longer matches.
		if _, err := f.WriteAt([]byte{0xFF}, fileHeaderSize+9); err != nil {
			t.Fatal(err)
		}
		f.Close()
		if err := reopen(root, pages); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("got %v, want ErrCorrupt", err)
		}
	})
	t.Run("wrong-size", func(t *testing.T) {
		root := mk(t)
		// Twice the pages need a larger log than the one on disk.
		if err := reopen(root, 8*pages*JournalPageSize/pageSize); !errors.Is(err, ErrGeometry) {
			t.Fatalf("got %v, want ErrGeometry", err)
		}
	})
	t.Run("other-geometry", func(t *testing.T) {
		root := mk(t)
		// One page fewer still needs the same log size, so the log file
		// opens and its header names the mismatch.
		if err := reopen(root, pages-1); !errors.Is(err, ErrGeometry) {
			t.Fatalf("got %v, want ErrGeometry", err)
		}
	})
}
