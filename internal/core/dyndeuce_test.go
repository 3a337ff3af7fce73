package core

import (
	"math/rand"
	"testing"

	"deuce/internal/bitutil"
)

// A dense workload (every word changes on every write) must push DynDEUCE
// into FNW mode, and its cost must then track EncrFNW, not DEUCE.
func TestDynDeuceSwitchesToFNWOnDenseWrites(t *testing.T) {
	dyn, _ := NewDynDeuce(Params{Lines: 1, EpochInterval: 32})
	rng := rand.New(rand.NewSource(3))
	data := make([]byte, 64)

	// Warm up to the epoch boundary so the epoch starts clean.
	for i := 0; i < 32; i++ {
		rng.Read(data)
		dyn.Write(0, data)
	}
	// Dense writes within an epoch.
	sawFNW := false
	for i := 0; i < 20; i++ {
		rng.Read(data)
		dyn.Write(0, data)
		_, meta := dyn.dev.Peek(0)
		if bitutil.GetBit(meta, dyn.modeBit()) {
			sawFNW = true
		}
	}
	if !sawFNW {
		t.Error("DynDEUCE never switched to FNW mode under dense writes")
	}
}

// A sparse workload must keep DynDEUCE in DEUCE mode.
func TestDynDeuceStaysDeuceOnSparseWrites(t *testing.T) {
	dyn, _ := NewDynDeuce(Params{Lines: 1, EpochInterval: 32})
	rng := rand.New(rand.NewSource(4))
	data := make([]byte, 64)
	dyn.Write(0, data)
	for i := 0; i < 25; i++ {
		data[0] = byte(rng.Int()) // single word churn
		dyn.Write(0, data)
		_, meta := dyn.dev.Peek(0)
		if bitutil.GetBit(meta, dyn.modeBit()) {
			t.Fatalf("switched to FNW on a sparse write at step %d", i)
		}
	}
}

// Once switched, the mode must stay FNW until the epoch boundary, where it
// reverts to DEUCE (the paper's one-way morph, §4.6).
func TestDynDeuceModeRevertsAtEpoch(t *testing.T) {
	const epoch = 8
	dyn, _ := NewDynDeuce(Params{Lines: 1, EpochInterval: epoch})
	rng := rand.New(rand.NewSource(5))
	data := make([]byte, 64)

	modeOf := func() bool {
		_, meta := dyn.dev.Peek(0)
		return bitutil.GetBit(meta, dyn.modeBit())
	}

	// Dense writes to force FNW mode mid-epoch.
	switched := -1
	for i := 1; i < epoch; i++ { // counters 1..epoch-1
		rng.Read(data)
		dyn.Write(0, data)
		if modeOf() {
			switched = i
			break
		}
	}
	if switched < 0 {
		t.Fatal("never switched to FNW under dense writes")
	}
	// Remain FNW until the boundary.
	for ctr := switched + 1; ctr < epoch; ctr++ {
		rng.Read(data)
		dyn.Write(0, data)
		if !modeOf() {
			t.Fatalf("mode reverted mid-epoch at counter %d", ctr)
		}
	}
	// Boundary write: back to DEUCE.
	rng.Read(data)
	dyn.Write(0, data) // counter == epoch
	if modeOf() {
		t.Error("mode did not revert to DEUCE at the epoch boundary")
	}
}

// Invariant 7 (weak form): at each DEUCE-mode decision point, the chosen
// image's actual flips equal the cheaper of the two estimates.
func TestDynDeucePicksCheaper(t *testing.T) {
	dyn, _ := NewDynDeuce(Params{Lines: 1, EpochInterval: 32})
	deu, _ := NewDeuce(Params{Lines: 1, EpochInterval: 32})
	enc, _ := NewEncrFNW(Params{Lines: 1, EpochInterval: 32})

	rng := rand.New(rand.NewSource(17))
	data := make([]byte, 64)
	var dynTotal, deuTotal, encTotal int
	const n = 640
	for i := 0; i < n; i++ {
		// Mixed density: mostly sparse with bursts of dense writes.
		if i%10 < 7 {
			data[rng.Intn(8)*2] = byte(rng.Int())
		} else {
			rng.Read(data)
		}
		dynTotal += dyn.Write(0, data).TotalFlips()
		deuTotal += deu.Write(0, data).TotalFlips()
		encTotal += enc.Write(0, data).TotalFlips()
	}
	// DynDEUCE must beat or match standalone DEUCE on this mix, and must
	// never exceed the FNW baseline by more than the mode-bit cost.
	if float64(dynTotal) > float64(deuTotal)*1.02 {
		t.Errorf("DynDEUCE (%d) worse than DEUCE (%d) on mixed workload", dynTotal, deuTotal)
	}
	if float64(dynTotal) > float64(encTotal)*1.05 {
		t.Errorf("DynDEUCE (%d) worse than Encr_FNW (%d) on mixed workload", dynTotal, encTotal)
	}
}

// Round trip must hold across the DEUCE->FNW switch and back.
func TestDynDeuceRoundTripAcrossModeChanges(t *testing.T) {
	dyn, _ := NewDynDeuce(Params{Lines: 1, EpochInterval: 8})
	rng := rand.New(rand.NewSource(23))
	data := make([]byte, 64)
	for i := 0; i < 200; i++ {
		if i%3 == 0 {
			rng.Read(data) // dense: pushes toward FNW
		} else {
			data[0] = byte(rng.Int()) // sparse
		}
		dyn.Write(0, data)
		if !bitutil.Equal(read(dyn, 0), data) {
			t.Fatalf("round trip broken at step %d", i)
		}
	}
}
