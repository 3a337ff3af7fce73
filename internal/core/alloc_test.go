package core

import (
	"math/rand"
	"testing"

	"deuce/internal/backend"
	"deuce/internal/pcmdev"
)

// The steady-state Write path of every encrypted scheme is required to be
// allocation-free: the scratch buffers in base.scr (plus per-scheme extras)
// absorb every intermediate image. These tests pin that down with
// testing.AllocsPerRun over a mixed workload of sparse mutations, which
// exercises epoch boundaries, modified-word tracking and (for DynDEUCE)
// both candidate encodings.
func testWriteAllocs(t *testing.T, kind Kind, want float64) {
	t.Helper()
	testWriteAllocsOn(t, kind, Params{Lines: 64}, want)
}

func testWriteAllocsOn(t *testing.T, kind Kind, p Params, want float64) Scheme {
	t.Helper()
	s, err := New(kind, p)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	lineBytes := 64
	lines := make([][]byte, 64)
	for i := range lines {
		lines[i] = make([]byte, lineBytes)
		rng.Read(lines[i])
		s.Write(uint64(i), lines[i]) // install + first write, off the clock
	}

	line := uint64(0)
	n := testing.AllocsPerRun(200, func() {
		buf := lines[line]
		buf[rng.Intn(lineBytes)] ^= byte(1 + rng.Intn(255)) // sparse mutation
		s.Write(line, buf)
		line = (line + 1) % uint64(len(lines))
	})
	if n > want {
		t.Errorf("%s: steady-state Write allocates %.2f times per call, want <= %v", kind, n, want)
	}
	return s
}

// pageCounter is a RAM backend that keeps the zero-copy page view and
// counts the pages it hands out.
type pageCounter struct {
	*backend.Mem
	pages int
}

func (c *pageCounter) Page(page int) []byte {
	c.pages++
	return c.Mem.Page(page)
}

// TestWriteZeroAllocsDeuce pins DEUCE's write on a bare device at 0
// allocations, and pins that it is the one-pass path: one page access per
// write (WriteTracked), where PeekInto + Write would take two.
func TestWriteZeroAllocsDeuce(t *testing.T) {
	arr := &pageCounter{}
	p := Params{Lines: 64, MakeBackend: func(region string, pages, size int) (backend.Backend, error) {
		if region == RegionArray {
			arr.Mem = backend.NewMem(pages, size)
			return arr, nil
		}
		return backend.NewMem(pages, size), nil
	}}
	s := testWriteAllocsOn(t, KindDeuce, p, 0)
	pages, writes := arr.pages, s.Device().Stats().Writes
	buf := make([]byte, 64)
	for i := 0; i < 100; i++ {
		buf[i%64]++
		s.Write(uint64(i%64), buf)
	}
	if got, w := arr.pages-pages, s.Device().Stats().Writes-writes; got != int(w) {
		t.Fatalf("%d writes took %d page accesses, want one each", w, got)
	}
}

func TestWriteZeroAllocsEncrDCW(t *testing.T)  { testWriteAllocs(t, KindEncrDCW, 0) }
func TestWriteZeroAllocsDynDeuce(t *testing.T) { testWriteAllocs(t, KindDynDeuce, 0) }
func TestWriteZeroAllocsEncrFNW(t *testing.T)  { testWriteAllocs(t, KindEncrFNW, 0) }
func TestWriteZeroAllocsDeuceFNW(t *testing.T) { testWriteAllocs(t, KindDeuceFNW, 0) }
func TestWriteZeroAllocsBLE(t *testing.T)      { testWriteAllocs(t, KindBLE, 0) }
func TestWriteZeroAllocsBLEDeuce(t *testing.T) { testWriteAllocs(t, KindBLEDeuce, 0) }
func TestWriteZeroAllocsSecret(t *testing.T)   { testWriteAllocs(t, KindSecret, 0) }
func TestWriteZeroAllocsPlainDCW(t *testing.T) { testWriteAllocs(t, KindPlainDCW, 0) }
func TestWriteZeroAllocsPlainFNW(t *testing.T) { testWriteAllocs(t, KindPlainFNW, 0) }
func TestWriteZeroAllocsAddrPad(t *testing.T)  { testWriteAllocs(t, KindAddrPad, 0) }

// INVMM's rotating-line workload displaces a hot line on every write, so
// this exercises the cooling-write path (PeekInto + EncryptInto through
// the shared scratch, SlotFlips staged in the scheme-owned buffer, the
// preallocated intrusive LRU) that used to cost 5 allocations per op.
func TestWriteZeroAllocsINVMM(t *testing.T) { testWriteAllocs(t, KindINVMM, 0) }

// TestWrappedArrayZeroAllocs pins DEUCE's and encr-dcw's steady-state
// Write and ReadInto at 0 allocations on every array of arrayLegs:
// Start-Gap with HWL and counted or free gap moves, Security Refresh with
// HWL, and the integrity guard on a bare and a Start-Gap device. The
// warm-up runs the levelers through several rounds first, so the pinned
// operations rotate by nonzero amounts and take counted moves. It also
// pins that every leg hands the scheme a *pcmdev.Device, on which DEUCE's
// Write is the one-pass WriteTracked.
func TestWrappedArrayZeroAllocs(t *testing.T) {
	for _, kind := range []Kind{KindDeuce, KindEncrDCW} {
		for _, leg := range arrayLegs {
			if leg.make == nil {
				continue
			}
			t.Run(string(kind)+"/"+leg.name, func(t *testing.T) {
				const lines = 64
				s := MustNew(kind, Params{Lines: lines, MakeArray: leg.make})
				if _, dev := s.Device().(*pcmdev.Device); !dev {
					t.Fatalf("array is a %T", s.Device())
				}
				rng := rand.New(rand.NewSource(7))
				buf := make([]byte, 64)
				write := func() {
					buf[rng.Intn(len(buf))] ^= byte(1 + rng.Intn(255))
					s.Write(uint64(rng.Intn(lines)), buf)
				}
				for i := 0; i < 3000; i++ {
					write()
				}
				if n := testing.AllocsPerRun(400, write); n != 0 {
					t.Errorf("Write allocates %.2f times per call, want 0", n)
				}
				line := uint64(0)
				if n := testing.AllocsPerRun(400, func() {
					s.ReadInto(line, buf)
					line = (line + 7) % lines
				}); n != 0 {
					t.Errorf("ReadInto allocates %.2f times per call, want 0", n)
				}
			})
		}
	}
}
