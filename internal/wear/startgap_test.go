package wear

import (
	"fmt"
	"math/rand"
	"testing"

	"deuce/internal/bitutil"
	"deuce/internal/pcmdev"
)

func sgDev(t testing.TB, lines, metaBits int, cfg StartGapConfig) *StartGap {
	t.Helper()
	s, err := NewStartGap(pcmdev.Config{Lines: lines, MetaBits: metaBits}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewStartGapValidation(t *testing.T) {
	if _, err := NewStartGap(pcmdev.Config{Lines: 1}, StartGapConfig{}); err == nil {
		t.Error("accepted 1-line memory")
	}
	if _, err := NewStartGap(pcmdev.Config{Lines: 8}, StartGapConfig{Psi: -1}); err == nil {
		t.Error("accepted negative Psi")
	}
	if _, err := NewStartGap(pcmdev.Config{Lines: 8}, StartGapConfig{Mode: Mode(99)}); err == nil {
		t.Error("accepted unknown mode")
	}
}

func TestModeString(t *testing.T) {
	if VWLOnly.String() != "VWL" || HWL.String() != "HWL" || HWLHashed.String() != "HWL-hashed" {
		t.Error("Mode.String mismatch")
	}
}

// Invariant 5: the logical→physical map is a bijection at every state.
func TestMappingIsPermutation(t *testing.T) {
	s := sgDev(t, 8, 0, StartGapConfig{Psi: 1})
	data := make([]byte, 64)
	for step := 0; step < 100; step++ {
		seen := make(map[uint64]bool)
		for l := uint64(0); l < 8; l++ {
			pa := s.physical(l)
			if pa > 8 {
				t.Fatalf("step %d: line %d mapped to %d, beyond physical range", step, l, pa)
			}
			if seen[pa] {
				t.Fatalf("step %d: physical %d hit twice", step, pa)
			}
			seen[pa] = true
			if int(pa) == s.GapPosition() {
				t.Fatalf("step %d: line %d mapped onto the gap", step, l)
			}
		}
		data[0] = byte(step)
		s.dev.Write(uint64(step%8), data, nil) // Psi=1: every write moves the gap
	}
	if s.GapMoves() != 100 {
		t.Errorf("GapMoves = %d, want 100", s.GapMoves())
	}
	if s.StartRegister() == 0 {
		t.Error("Start register never incremented over a full rotation")
	}
}

// levelerConfigs runs body under every mode, for every metadata width
// around the byte and word boundaries, with free and counted moves.
func levelerConfigs(t *testing.T, body func(t *testing.T, metaBits int, cfg StartGapConfig)) {
	for _, mode := range []Mode{VWLOnly, HWL, HWLHashed} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			t.Parallel()
			for _, metaBits := range []int{0, 1, 33, 65} {
				for _, free := range []bool{true, false} {
					cfg := StartGapConfig{Mode: mode, FreeGapMoves: free}
					t.Run(fmt.Sprintf("meta%d-free=%v", metaBits, free), func(t *testing.T) {
						body(t, metaBits, cfg)
					})
				}
			}
		})
	}
}

// checkShadowed writes random images (metadata padding clear, as schemes
// write it) to random lines of arr and, after every write, reads every
// line back through both Peek and ReadInto.
func checkShadowed(t *testing.T, arr pcmdev.Array, metaBits, steps int, seed int64) {
	t.Helper()
	lines := arr.Config().Lines
	shadowD := make([][]byte, lines)
	shadowM := make([][]byte, lines)
	for l := range shadowD {
		shadowD[l] = make([]byte, 64)
		shadowM[l] = make([]byte, (metaBits+7)/8)
	}
	rng := rand.New(rand.NewSource(seed))
	d, m := make([]byte, 64), make([]byte, (metaBits+7)/8)
	for step := 0; step < steps; step++ {
		l := uint64(rng.Intn(lines))
		rng.Read(shadowD[l])
		rng.Read(shadowM[l])
		if r := metaBits % 8; r != 0 {
			shadowM[l][len(shadowM[l])-1] &= 1<<r - 1
		}
		arr.Write(l, shadowD[l], shadowM[l])
		// Verify every line after every write: any rotation or
		// remapping bug shows up immediately.
		for v := uint64(0); v < uint64(lines); v++ {
			pd, pm := arr.Peek(v)
			arr.ReadInto(v, d, m)
			if !bitutil.Equal(pd, shadowD[v]) || !bitutil.Equal(d, shadowD[v]) {
				t.Fatalf("step %d: data mismatch on line %d", step, v)
			}
			if !bitutil.Equal(pm, shadowM[v]) || !bitutil.Equal(m, shadowM[v]) {
				t.Fatalf("step %d: meta mismatch on line %d", step, v)
			}
		}
	}
}

// Data must survive arbitrary amounts of gap movement and start increments,
// under every mode, metadata width and gap-move accounting.
func TestDataIntegrityAcrossGapMoves(t *testing.T) {
	levelerConfigs(t, func(t *testing.T, metaBits int, cfg StartGapConfig) {
		cfg.Psi = 3
		checkShadowed(t, sgDev(t, 8, metaBits, cfg).dev, metaBits, 600, int64(cfg.Mode))
	})
}

// physicalView returns the data cells of a logical line as the memory
// programs them: its stored image, rotated by the line's HWL amount.
func physicalView(s *StartGap, line uint64) []byte {
	cfg := s.dev.Config()
	n := cfg.TotalBitsPerLine()
	d, m := s.dev.Peek(line)
	pd, _ := rotateImage(cfg, n, d, m, int((*remap)(&s.leveler).Rotation(line)%uint64(n)))
	return pd
}

// Under HWL the same logical bit must land on different physical positions
// as Start advances.
func TestHWLRotatesStoredImage(t *testing.T) {
	const lines = 4
	s := sgDev(t, lines, 0, StartGapConfig{Psi: 1, Mode: HWL})
	data := make([]byte, 64)
	data[0] = 0x01 // logical bit 0 set

	// Write the same line repeatedly; Psi=1 makes the gap sweep fast,
	// so Start climbs after every `lines+1` moves.
	physPositions := make(map[int]bool)
	for i := 0; i < 200; i++ {
		s.dev.Write(0, data, nil)
		// Find where logical bit 0 currently lives physically.
		pd := physicalView(s, 0)
		for b := 0; b < 512; b++ {
			if bitutil.GetBit(pd, b) {
				physPositions[b] = true
			}
		}
	}
	if len(physPositions) < 10 {
		t.Errorf("logical bit 0 visited only %d physical positions; HWL not rotating", len(physPositions))
	}
}

// Without HWL, a hot bit stays on the same intra-line position forever.
func TestVWLOnlyDoesNotRotate(t *testing.T) {
	s := sgDev(t, 4, 0, StartGapConfig{Psi: 1, Mode: VWLOnly})
	data := make([]byte, 64)
	for i := 0; i < 100; i++ {
		data[0] ^= 1 // toggle logical bit 0
		s.dev.Write(0, data, nil)
		pd := physicalView(s, 0)
		// Bit 0 of the stored image must equal the logical bit exactly.
		if bitutil.GetBit(pd, 0) != (data[0] == 1) {
			t.Fatal("VWL-only stored image was rotated")
		}
	}
}

// HWL must flatten the per-position wear profile that a hot-bit workload
// produces (the mechanism behind Figure 14's 1.1x -> 2x improvement).
func TestHWLFlattensWearProfile(t *testing.T) {
	skewFor := func(mode Mode) float64 {
		// Small memory + Psi=1 so the Start register climbs past the
		// 512 bits of the line within the test budget, as it does (by
		// hundreds of thousands) in a real run (§5.3).
		s := sgDev(t, 4, 0, StartGapConfig{Psi: 1, Mode: mode})
		rng := rand.New(rand.NewSource(31))
		data := make([]byte, 64)
		const writes = 20000
		for i := 0; i < writes; i++ {
			// Hot first word: only bits 0..15 ever change.
			data[0], data[1] = byte(rng.Int()), byte(rng.Int())
			s.dev.Write(uint64(i%4), data, nil)
		}
		p := MustAnalyze(s.dev.PositionWrites(), uint64(writes))
		return p.Skew()
	}
	vwl := skewFor(VWLOnly)
	hwl := skewFor(HWL)
	hashed := skewFor(HWLHashed)
	if vwl < 5 {
		t.Errorf("VWL-only skew = %.1f, expected a strongly skewed profile", vwl)
	}
	if hwl > 2 {
		t.Errorf("HWL skew = %.1f, expected near-uniform (<2)", hwl)
	}
	if hashed > 2 {
		t.Errorf("hashed HWL skew = %.1f, expected near-uniform (<2)", hashed)
	}
}

func TestOutOfRangeLinePanics(t *testing.T) {
	s := sgDev(t, 4, 0, StartGapConfig{})
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range write did not panic")
		}
	}()
	s.dev.Write(4, make([]byte, 64), nil)
}

// A wrong-size line image panics as it does on the bare device, also when
// the line's rotation is zero and the image would be copied verbatim.
func TestWrongSizeImagePanics(t *testing.T) {
	s := sgDev(t, 4, 8, StartGapConfig{Mode: HWL})
	for _, img := range []struct{ data, meta []byte }{
		{make([]byte, 63), make([]byte, 1)},
		{make([]byte, 64), nil},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("write of %d+%d bytes did not panic", len(img.data), len(img.meta))
				}
			}()
			s.dev.Write(0, img.data, img.meta)
		}()
	}
}

func TestConfigReportsLogicalLines(t *testing.T) {
	s := sgDev(t, 4, 8, StartGapConfig{})
	if s.dev.Config().Lines != 4 {
		t.Errorf("logical Lines = %d, want 4", s.dev.Config().Lines)
	}
	if rows := len(s.dev.LineWrites()); rows != 5 {
		t.Errorf("physical Lines = %d, want 5", rows)
	}
}

func TestLoadBypassesCost(t *testing.T) {
	s := sgDev(t, 4, 0, StartGapConfig{Mode: HWL})
	data := make([]byte, 64)
	data[5] = 0xff
	s.dev.Load(2, data, nil)
	if s.dev.Stats().Writes != 0 {
		t.Error("Load counted as a write")
	}
	d, _ := s.dev.Peek(2)
	if !bitutil.Equal(d, data) {
		t.Error("Load round trip failed")
	}
}

// The point of vertical wear leveling, previously untested directly: a hot
// logical line's writes spread across many physical lines over rotations.
func TestVWLFlattensInterLineWear(t *testing.T) {
	run := func(wrap bool) []uint64 {
		if !wrap {
			dev := pcmdev.MustNew(pcmdev.Config{Lines: 9})
			data := make([]byte, 64)
			for i := 0; i < 4000; i++ {
				data[0] = byte(i)
				dev.Write(2, data, nil) // all heat on one line
			}
			return dev.LineWrites()
		}
		sg := MustNewStartGap(pcmdev.Config{Lines: 8}, StartGapConfig{Psi: 4, FreeGapMoves: true})
		data := make([]byte, 64)
		for i := 0; i < 4000; i++ {
			data[0] = byte(i)
			sg.dev.Write(2, data, nil)
		}
		return sg.Device().LineWrites()
	}
	skew := func(counts []uint64) float64 {
		var max, sum uint64
		for _, c := range counts {
			sum += c
			if c > max {
				max = c
			}
		}
		return float64(max) / (float64(sum) / float64(len(counts)))
	}
	bare := skew(run(false))
	leveled := skew(run(true))
	if bare < 5 {
		t.Fatalf("unleveled inter-line skew = %.1f, expected concentration", bare)
	}
	if leveled > 2 {
		t.Errorf("Start-Gap inter-line skew = %.1f, want near-uniform", leveled)
	}
}

// Security Refresh achieves the same inter-line flattening.
func TestSRFlattensInterLineWear(t *testing.T) {
	sr := MustNewSecurityRefresh(pcmdev.Config{Lines: 8}, StartGapConfig{Psi: 4, FreeGapMoves: true}, 3)
	data := make([]byte, 64)
	for i := 0; i < 4000; i++ {
		data[0] = byte(i)
		sr.dev.Write(2, data, nil)
	}
	counts := sr.Device().LineWrites()
	var max, sum uint64
	for _, c := range counts {
		sum += c
		if c > max {
			max = c
		}
	}
	skew := float64(max) / (float64(sum) / float64(len(counts)))
	if skew > 2.5 {
		t.Errorf("Security Refresh inter-line skew = %.1f, want near-uniform", skew)
	}
}
