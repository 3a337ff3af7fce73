package wear

import (
	"math/rand"
	"testing"

	"deuce/internal/bitutil"
	"deuce/internal/pcmdev"
)

func srDev(t testing.TB, lines, metaBits int, cfg StartGapConfig) *SecurityRefresh {
	t.Helper()
	s, err := NewSecurityRefresh(pcmdev.Config{Lines: lines, MetaBits: metaBits}, cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSecurityRefreshValidation(t *testing.T) {
	if _, err := NewSecurityRefresh(pcmdev.Config{Lines: 12}, StartGapConfig{}, 1); err == nil {
		t.Error("non-power-of-two line count accepted")
	}
	if _, err := NewSecurityRefresh(pcmdev.Config{Lines: 1}, StartGapConfig{}, 1); err == nil {
		t.Error("single-line memory accepted")
	}
	if _, err := NewSecurityRefresh(pcmdev.Config{Lines: 8}, StartGapConfig{Psi: -2}, 1); err == nil {
		t.Error("negative psi accepted")
	}
	if _, err := NewSecurityRefresh(pcmdev.Config{Lines: 8}, StartGapConfig{Mode: Mode(9)}, 1); err == nil {
		t.Error("bad mode accepted")
	}
}

// The logical→physical map must stay a permutation through sweeps and key
// rotations.
func TestSRMappingIsPermutation(t *testing.T) {
	s := srDev(t, 16, 0, StartGapConfig{Psi: 1})
	data := make([]byte, 64)
	for step := 0; step < 300; step++ {
		seen := make(map[uint64]bool)
		for l := uint64(0); l < 16; l++ {
			pa := s.physical(l)
			if pa >= 16 {
				t.Fatalf("step %d: physical %d out of range", step, pa)
			}
			if seen[pa] {
				t.Fatalf("step %d: physical %d mapped twice", step, pa)
			}
			seen[pa] = true
		}
		data[0] = byte(step)
		s.dev.Write(uint64(step%16), data, nil)
	}
	if s.Rounds() == 0 {
		t.Error("no refresh rounds completed in 300 psi=1 writes over 16 lines")
	}
	if s.Swaps() == 0 {
		t.Error("no pair swaps recorded")
	}
}

// Data must survive arbitrary sweeps under every mode, metadata width and
// swap accounting.
func TestSRDataIntegrity(t *testing.T) {
	levelerConfigs(t, func(t *testing.T, metaBits int, cfg StartGapConfig) {
		cfg.Psi = 2
		checkShadowed(t, srDev(t, 8, metaBits, cfg).dev, metaBits, 800, int64(cfg.Mode)+11)
	})
}

// A hot logical line must visit many physical slots across rounds — the
// inter-line leveling Security Refresh exists for.
func TestSRRelocatesHotLine(t *testing.T) {
	s := srDev(t, 16, 0, StartGapConfig{Psi: 1})
	data := make([]byte, 64)
	visited := make(map[uint64]bool)
	for i := 0; i < 500; i++ {
		data[0] = byte(i)
		s.dev.Write(3, data, nil)
		visited[s.physical(3)] = true
	}
	if len(visited) < 4 {
		t.Errorf("hot line visited only %d physical slots", len(visited))
	}
}

// The hashed-HWL variant must flatten intra-line wear like Start-Gap's.
func TestSRHWLFlattens(t *testing.T) {
	skewFor := func(mode Mode) float64 {
		s := srDev(t, 4, 0, StartGapConfig{Psi: 1, Mode: mode, FreeGapMoves: true})
		rng := rand.New(rand.NewSource(31))
		data := make([]byte, 64)
		const writes = 20000
		for i := 0; i < writes; i++ {
			data[0], data[1] = byte(rng.Int()), byte(rng.Int())
			s.dev.Write(uint64(i%4), data, nil)
		}
		p := MustAnalyze(s.dev.PositionWrites(), uint64(writes))
		return p.Skew()
	}
	if v := skewFor(VWLOnly); v < 5 {
		t.Errorf("VWL-only skew = %.1f, expected hot-word concentration", v)
	}
	if h := skewFor(HWLHashed); h > 2.5 {
		t.Errorf("hashed HWL skew = %.1f, expected near-uniform", h)
	}
}

func TestSRLoadBypassesCost(t *testing.T) {
	s := srDev(t, 8, 0, StartGapConfig{Mode: HWLHashed})
	data := make([]byte, 64)
	data[3] = 0x77
	s.dev.Load(5, data, nil)
	if s.dev.Stats().Writes != 0 {
		t.Error("Load counted as write")
	}
	d, _ := s.dev.Peek(5)
	if !bitutil.Equal(d, data) {
		t.Error("Load round trip failed")
	}
}

func TestSROutOfRangePanics(t *testing.T) {
	s := srDev(t, 8, 0, StartGapConfig{})
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range access did not panic")
		}
	}()
	s.dev.ReadInto(8, make([]byte, 64), nil)
}

// Reads on a freshly booted array return zeroes (identity initial mapping).
func TestSRFreshReadsZero(t *testing.T) {
	s := srDev(t, 8, 8, StartGapConfig{})
	d, m := make([]byte, 64), make([]byte, 1)
	s.dev.ReadInto(5, d, m)
	if bitutil.PopCount(d) != 0 || bitutil.PopCount(m) != 0 {
		t.Error("fresh array reads non-zero")
	}
}
