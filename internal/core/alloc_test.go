package core

import (
	"math/rand"
	"testing"
)

// The steady-state Write path of every encrypted scheme is required to be
// allocation-free: the scratch buffers in base.scr (plus per-scheme extras)
// absorb every intermediate image. These tests pin that down with
// testing.AllocsPerRun over a mixed workload of sparse mutations, which
// exercises epoch boundaries, modified-word tracking and (for DynDEUCE)
// both candidate encodings.
func testWriteAllocs(t *testing.T, kind Kind, want float64) {
	t.Helper()
	s, err := New(kind, Params{Lines: 64})
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
}

func TestWriteZeroAllocsDeuce(t *testing.T)    { testWriteAllocs(t, KindDeuce, 0) }
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
