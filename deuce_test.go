package deuce

import (
	"bytes"
	"math/rand"
	"testing"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(Options{}); err == nil {
		t.Error("zero Lines accepted")
	}
	if _, err := New(Options{Lines: 16, Scheme: "bogus"}); err == nil {
		t.Error("bogus scheme accepted")
	}
	if _, err := New(Options{Lines: 16, EpochInterval: 3}); err == nil {
		t.Error("non-power-of-two epoch accepted")
	}
	if _, err := New(Options{Lines: 16, WearLeveling: WearLeveling(99)}); err == nil {
		t.Error("unknown wear mode accepted")
	}
}

func TestDefaultIsDeuce(t *testing.T) {
	m := MustNew(Options{Lines: 16})
	if m.SchemeName() != "DEUCE" {
		t.Errorf("default scheme = %q, want DEUCE", m.SchemeName())
	}
	if m.Lines() != 16 {
		t.Errorf("Lines = %d", m.Lines())
	}
}

func TestSchemesListsAll(t *testing.T) {
	ss := Schemes()
	if len(ss) != 12 {
		t.Fatalf("Schemes() has %d entries, want 12", len(ss))
	}
	for _, s := range ss {
		if _, err := New(Options{Lines: 8, Scheme: s}); err != nil {
			t.Errorf("scheme %s does not construct: %v", s, err)
		}
	}
}

func TestRoundTripAllSchemes(t *testing.T) {
	for _, s := range Schemes() {
		m := MustNew(Options{Lines: 8, Scheme: s})
		rng := rand.New(rand.NewSource(1))
		data := make([]byte, 64)
		for i := 0; i < 100; i++ {
			data[rng.Intn(64)] = byte(rng.Int())
			m.Write(3, data)
			if !bytes.Equal(m.Read(3), data) {
				t.Fatalf("%s: round trip failed at write %d", s, i)
			}
		}
	}
}

func TestWriteInfoAndStats(t *testing.T) {
	m := MustNew(Options{Lines: 8, Scheme: EncrDCW})
	data := make([]byte, 64)
	data[0] = 1
	info := m.Write(0, data)
	if info.BitFlips == 0 || info.WriteSlots == 0 {
		t.Errorf("encrypted write reported no cost: %+v", info)
	}
	st := m.Stats()
	if st.Writes != 1 || st.BitFlips != uint64(info.BitFlips) {
		t.Errorf("stats = %+v", st)
	}
	if st.FlipFraction < 0.4 || st.FlipFraction > 0.6 {
		t.Errorf("encrypted FlipFraction = %.2f, want ~0.5", st.FlipFraction)
	}
	m.ResetStats()
	if m.Stats().Writes != 0 {
		t.Error("ResetStats did not clear")
	}
}

func TestMetadataOverheads(t *testing.T) {
	cases := map[Scheme]int{
		DEUCE:    32,
		DynDEUCE: 33,
		DEUCEFNW: 64,
		EncrFNW:  32,
		EncrDCW:  0,
	}
	for s, want := range cases {
		m := MustNew(Options{Lines: 8, Scheme: s})
		if got := m.Stats().MetadataBitsPerLine; got != want {
			t.Errorf("%s: overhead = %d, want %d", s, got, want)
		}
	}
}

// The headline claim, end to end through the public API: on a sparse write
// stream, DEUCE programs less than half the cells the encrypted baseline
// does, while both round-trip the data.
func TestHeadlineClaim(t *testing.T) {
	run := func(s Scheme) float64 {
		m := MustNew(Options{Lines: 64, Scheme: s})
		rng := rand.New(rand.NewSource(7))
		lines := make([][]byte, 64)
		for i := range lines {
			lines[i] = make([]byte, 64)
			m.Install(uint64(i), lines[i])
		}
		for i := 0; i < 5000; i++ {
			l := rng.Intn(64)
			lines[l][rng.Intn(8)*2] = byte(rng.Int()) // sparse footprint
			m.Write(uint64(l), lines[l])
		}
		return m.Stats().FlipFraction
	}
	base := run(EncrDCW)
	d := run(DEUCE)
	if base < 0.45 {
		t.Errorf("baseline flip fraction %.2f, want ~0.5", base)
	}
	if d > base/2 {
		t.Errorf("DEUCE flip fraction %.2f not below half of baseline %.2f", d, base)
	}
}

func TestInstallThenWrite(t *testing.T) {
	m := MustNew(Options{Lines: 4})
	content := make([]byte, 64)
	for i := range content {
		content[i] = byte(i)
	}
	m.Install(1, content)
	if !bytes.Equal(m.Read(1), content) {
		t.Fatal("installed content lost")
	}
	if m.Stats().Writes != 0 {
		t.Error("Install counted as write")
	}
	content[0] = 0xff
	info := m.Write(1, content)
	// One word changed: the write must be word-scale, not line-scale.
	if info.BitFlips > 40 {
		t.Errorf("post-install sparse write cost %d flips", info.BitFlips)
	}
}

func TestWearLeveledMemory(t *testing.T) {
	for _, wl := range []WearLeveling{VerticalWL, HorizontalWL, HorizontalWLHashed, SecurityRefreshWL, SecurityRefreshHWL} {
		m := MustNew(Options{Lines: 16, WearLeveling: wl, GapWriteInterval: 2})
		rng := rand.New(rand.NewSource(3))
		data := make([]byte, 64)
		for i := 0; i < 500; i++ {
			l := uint64(rng.Intn(16))
			rng.Read(data)
			m.Write(l, data)
			if !bytes.Equal(m.Read(l), data) {
				t.Fatalf("wear mode %d: round trip failed", wl)
			}
		}
		if len(m.WearProfile()) == 0 {
			t.Error("empty wear profile")
		}
	}
}

func BenchmarkMemoryWriteDEUCE(b *testing.B) {
	m := MustNew(Options{Lines: 1024})
	rng := rand.New(rand.NewSource(1))
	data := make([]byte, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		data[rng.Intn(64)] = byte(rng.Int())
		m.Write(uint64(i%1024), data)
	}
}

func BenchmarkMemoryReadDEUCE(b *testing.B) {
	m := MustNew(Options{Lines: 1024})
	data := make([]byte, 64)
	for i := 0; i < 1024; i++ {
		m.Write(uint64(i), data)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Read(uint64(i % 1024))
	}
}

func TestMemoryPersistRoundTrip(t *testing.T) {
	opts := Options{Lines: 16, Scheme: DEUCE}
	m := MustNew(opts)
	data := make([]byte, 64)
	copy(data, "durable")
	m.Write(5, data)

	var img bytes.Buffer
	if err := m.Persist(&img); err != nil {
		t.Fatal(err)
	}
	m2 := MustNew(opts)
	if err := m2.RestoreState(&img); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(m2.Read(5)[:7], []byte("durable")) {
		t.Fatal("data lost across Persist/RestoreState")
	}
	// Wear-leveled memories refuse persistence with a clear error.
	wl := MustNew(Options{Lines: 16, WearLeveling: HorizontalWL})
	if err := wl.Persist(&bytes.Buffer{}); err == nil {
		t.Error("wear-leveled Persist did not error")
	}
	if err := m.Persist(&img); err != nil {
		t.Fatal(err)
	}
	if err := wl.RestoreState(&img); err == nil {
		t.Error("wear-leveled RestoreState did not error")
	}
}
