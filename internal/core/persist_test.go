package core

import (
	"bytes"
	"errors"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"deuce/internal/backend"
	"deuce/internal/bitutil"
	"deuce/internal/pcmdev"
	"deuce/internal/wear"
)

// Every scheme must survive a power cycle: save, rebuild, load, and all
// data (and epoch/counter state) must be intact and continue working.
func TestPowerCycleAllSchemes(t *testing.T) {
	for _, k := range allKinds {
		k := k
		t.Run(string(k), func(t *testing.T) {
			t.Parallel()
			params := Params{Lines: 8, EpochInterval: 4}
			s := MustNew(k, params)
			rng := rand.New(rand.NewSource(7))
			shadow := make([][]byte, 8)
			for i := range shadow {
				shadow[i] = make([]byte, 64)
			}
			for i := 0; i < 200; i++ {
				l := rng.Intn(8)
				shadow[l][rng.Intn(64)] = byte(rng.Int())
				s.Write(uint64(l), shadow[l])
			}

			var snapshot bytes.Buffer
			if err := s.(Persistent).SaveState(&snapshot); err != nil {
				t.Fatal(err)
			}

			// "Power up": a fresh scheme with identical configuration.
			s2 := MustNew(k, params)
			if err := s2.(Persistent).LoadState(&snapshot); err != nil {
				t.Fatal(err)
			}
			for l := uint64(0); l < 8; l++ {
				if !bitutil.Equal(s2.Read(l), shadow[l]) {
					t.Fatalf("line %d lost across power cycle", l)
				}
			}
			// The restored memory must keep operating correctly
			// (counters continued, no pad reuse corruption).
			for i := 0; i < 100; i++ {
				l := rng.Intn(8)
				shadow[l][rng.Intn(64)] = byte(rng.Int())
				s2.Write(uint64(l), shadow[l])
				if !bitutil.Equal(s2.Read(uint64(l)), shadow[l]) {
					t.Fatalf("restored memory corrupt at post-restore write %d", i)
				}
			}
		})
	}
}

func TestLoadStateRejectsMismatches(t *testing.T) {
	save := func(k Kind, p Params) []byte {
		s := MustNew(k, p)
		data := make([]byte, 64)
		data[0] = 1
		s.Write(0, data)
		var buf bytes.Buffer
		if err := s.(Persistent).SaveState(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	base := Params{Lines: 8, EpochInterval: 4}
	snap := save(KindDeuce, base)

	cases := []struct {
		name string
		kind Kind
		p    Params
		// want is a fragment the error must carry: the v2 framing names
		// what differs — both scheme kinds, both geometries — instead of
		// an opaque "state mismatch".
		want string
		// is is the typed error the mismatch must wrap.
		is error
	}{
		{"different scheme", KindEncrDCW, base, `snapshot holds scheme "DEUCE"`, ErrStateMismatch},
		{"different key", KindDeuce, Params{Lines: 8, EpochInterval: 4, Key: []byte("fedcba9876543210")}, "different key", ErrStateMismatch},
		{"different lines", KindDeuce, Params{Lines: 16, EpochInterval: 4}, "snapshot 8 lines × 64B, memory 16 lines × 64B", backend.ErrGeometry},
		{"different epoch", KindDeuce, Params{Lines: 8, EpochInterval: 8}, "snapshot epoch=4", ErrStateMismatch},
	}
	for _, c := range cases {
		s := MustNew(c.kind, c.p)
		err := s.(Persistent).LoadState(bytes.NewReader(snap))
		if err == nil {
			t.Errorf("%s: mismatched snapshot accepted", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not name the mismatch (want substring %q)", c.name, err, c.want)
		}
		if !errors.Is(err, c.is) {
			t.Errorf("%s: error %q does not wrap %v", c.name, err, c.is)
		}
	}
	// Control: matching configuration loads.
	s := MustNew(KindDeuce, base)
	if err := s.(Persistent).LoadState(bytes.NewReader(snap)); err != nil {
		t.Errorf("matching restore failed: %v", err)
	}
}

func TestLoadStateRejectsGarbage(t *testing.T) {
	s := MustNew(KindDeuce, Params{Lines: 4})
	if err := s.(Persistent).LoadState(bytes.NewReader([]byte("not a snapshot"))); !errors.Is(err, backend.ErrCorrupt) {
		t.Errorf("garbage: got %v, want backend.ErrCorrupt", err)
	}
	if err := s.(Persistent).LoadState(bytes.NewReader(nil)); !errors.Is(err, backend.ErrTruncated) {
		t.Errorf("empty input: got %v, want backend.ErrTruncated", err)
	}
	// Retired v1 framing is named explicitly, not reported as garbage.
	err := s.(Persistent).LoadState(bytes.NewReader([]byte("DST1rest-of-old-snapshot")))
	if err == nil || !strings.Contains(err.Error(), "v1") {
		t.Errorf("v1 snapshot error %v does not name the retired framing", err)
	}
	if !errors.Is(err, backend.ErrCorrupt) {
		t.Errorf("v1 snapshot: got %v, want backend.ErrCorrupt", err)
	}
}

// memoryState is every line's plaintext (through ReadInto), every line
// counter and the touched-line bitmap of a DEUCE memory.
func memoryState(s *Deuce) (plain [][]byte, ctrs []uint64, inited []byte) {
	for l := uint64(0); l < uint64(s.p.Lines); l++ {
		dst := make([]byte, s.p.LineBytes)
		s.ReadInto(l, dst)
		plain = append(plain, dst)
		ctrs = append(ctrs, s.ctrs.Get(l))
	}
	return plain, ctrs, bytes.Clone(s.inited.Bytes())
}

// TestLoadStateAtomicUnderTruncation cuts a valid DEUCE snapshot at every
// byte offset: each cut must fail with backend.ErrTruncated, and leave
// every line's plaintext, every counter and the touched-line bitmap of the
// memory loading it as they were — not a new bitmap or new counters over
// old cells. The loading memory holds different lines, counters and bitmap
// than the snapshot, so a partial install would show.
func TestLoadStateAtomicUnderTruncation(t *testing.T) {
	params := Params{Lines: 16, EpochInterval: 4}
	fill := func(seed int64, lines int) *Deuce {
		s := MustNew(KindDeuce, params).(*Deuce)
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 64)
		for i := 0; i < 40*lines; i++ {
			rng.Read(data[:8])
			s.Write(uint64(rng.Intn(lines)), data)
		}
		return s
	}
	var snap bytes.Buffer
	if err := fill(1, 16).SaveState(&snap); err != nil {
		t.Fatal(err)
	}
	full := snap.Bytes()
	s := fill(2, 9)
	plain, ctrs, inited := memoryState(s)
	for cut := 0; cut < len(full); cut++ {
		err := s.LoadState(bytes.NewReader(full[:cut]))
		if err == nil {
			t.Fatalf("snapshot cut at byte %d of %d loaded", cut, len(full))
		}
		if !errors.Is(err, backend.ErrTruncated) {
			t.Fatalf("snapshot cut at byte %d of %d: got %v, want backend.ErrTruncated", cut, len(full), err)
		}
		gotPlain, gotCtrs, gotInited := memoryState(s)
		if !slices.EqualFunc(gotPlain, plain, bytes.Equal) || !slices.Equal(gotCtrs, ctrs) || !bytes.Equal(gotInited, inited) {
			t.Fatalf("failed LoadState of a snapshot cut at byte %d of %d changed the memory", cut, len(full))
		}
	}
	// Control: the whole snapshot loads and replaces all three.
	if err := s.LoadState(bytes.NewReader(full)); err != nil {
		t.Fatal(err)
	}
	wantPlain, wantCtrs, wantInited := memoryState(fill(1, 16))
	gotPlain, gotCtrs, gotInited := memoryState(s)
	if !slices.EqualFunc(gotPlain, wantPlain, bytes.Equal) || !slices.Equal(gotCtrs, wantCtrs) || !bytes.Equal(gotInited, wantInited) {
		t.Fatal("the whole snapshot did not restore the saved memory")
	}
}

// Persistence under wear leveling is refused (controller registers are not
// part of the format), with a clear error instead of silent corruption.
func TestPersistenceRejectsWearLeveling(t *testing.T) {
	s := MustNew(KindDeuce, Params{
		Lines: 8,
		MakeArray: func(cfg pcmdev.Config) (pcmdev.Array, error) {
			return wear.NewStartGap(cfg, wear.StartGapConfig{})
		},
	})
	var buf bytes.Buffer
	if err := s.(Persistent).SaveState(&buf); err == nil {
		t.Error("SaveState accepted a wear-leveled array")
	}
}

// i-NVMM's snapshot must never contain plain-text hot lines: saving
// triggers the power-down encryption.
func TestINVMMSnapshotIsEncrypted(t *testing.T) {
	s, _ := NewINVMM(Params{Lines: 16})
	secret := make([]byte, 64)
	copy(secret, "do not persist me in the clear")
	s.Write(3, secret)
	if !s.Exposed(3) {
		t.Fatal("line not hot before save")
	}
	var buf bytes.Buffer
	if err := s.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(buf.Bytes(), secret[:16]) {
		t.Fatal("snapshot contains plain-text secret")
	}
	// Restore into a fresh memory: data intact, nothing exposed.
	s2, _ := NewINVMM(Params{Lines: 16})
	if err := s2.LoadState(&buf); err != nil {
		t.Fatal(err)
	}
	if s2.Exposed(3) {
		t.Error("line exposed after restore")
	}
	if !bitutil.Equal(s2.Read(3), secret) {
		t.Error("data lost across i-NVMM power cycle")
	}
}

// FuzzLoadState feeds arbitrary DST2 snapshots to a DEUCE memory: LoadState
// must never panic, every error it returns must be typed (backend's
// ErrCorrupt, ErrTruncated or ErrGeometry, or ErrStateMismatch), and a load
// that fails must leave the memory exactly as it was, so SaveState reads
// back byte-identical. The corpus seeds with a real snapshot and cuts of
// it.
func FuzzLoadState(f *testing.F) {
	params := Params{Lines: 16, EpochInterval: 4}
	build := func() *Deuce {
		s := MustNew(KindDeuce, params).(*Deuce)
		rng := rand.New(rand.NewSource(3))
		data := make([]byte, 64)
		for i := 0; i < 200; i++ {
			rng.Read(data[:8])
			s.Write(uint64(rng.Intn(9)), data)
		}
		return s
	}
	save := func(s *Deuce) []byte {
		var b bytes.Buffer
		if err := s.SaveState(&b); err != nil {
			f.Fatal(err)
		}
		return b.Bytes()
	}
	before := save(build())
	other := MustNew(KindDeuce, params).(*Deuce)
	other.Write(5, make([]byte, 64))
	full := save(other)
	for _, cut := range []int{0, 4, 8, 24, len(full) / 2, len(full) - 1, len(full)} {
		f.Add(full[:cut])
	}
	f.Fuzz(func(t *testing.T, snap []byte) {
		s := build()
		err := s.LoadState(bytes.NewReader(snap))
		if err == nil {
			return
		}
		if !errors.Is(err, backend.ErrCorrupt) && !errors.Is(err, backend.ErrTruncated) &&
			!errors.Is(err, backend.ErrGeometry) && !errors.Is(err, ErrStateMismatch) {
			t.Fatalf("untyped LoadState error: %v", err)
		}
		var after bytes.Buffer
		if err := s.SaveState(&after); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(after.Bytes(), before) {
			t.Fatal("a failed LoadState changed the memory")
		}
	})
}
