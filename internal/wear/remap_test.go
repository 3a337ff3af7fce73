package wear

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"deuce/internal/pcmdev"
)

// newRemapPair builds a wear-leveled device and its rotated-storage twin
// over the same geometry and configuration: Start-Gap, or with sr
// Security Refresh at seed 1.
func newRemapPair(t testing.TB, devCfg pcmdev.Config, cfg StartGapConfig, sr bool) (*pcmdev.Device, pcmdev.Array) {
	t.Helper()
	var dev *pcmdev.Device
	if sr {
		s, err := NewSecurityRefresh(devCfg, cfg, 1)
		if err != nil {
			t.Fatal(err)
		}
		dev = s.Device()
	} else {
		s, err := NewStartGap(devCfg, cfg)
		if err != nil {
			t.Fatal(err)
		}
		dev = s.Device()
	}
	tw, err := NewTwin(devCfg, cfg, sr)
	if err != nil {
		t.Fatal(err)
	}
	return dev, tw
}

// physicalDevice returns the bare device under a twin.
func physicalDevice(tw pcmdev.Array) *pcmdev.Device {
	if s, ok := tw.(*twinStartGap); ok {
		return s.inner
	}
	return tw.(*twinSecurityRefresh).inner
}

// replayTwin drives a wear-leveled device and its twin with ops random
// operations from rng — writes of sparse edits, rewrites and unchanged
// images, Loads and reads — and diffs the two after every one: the
// WriteResult (SlotFlips included), Stats, PositionWrites, LineWrites,
// every physical row's LineWear when tracked, and every line's PeekInto
// and ReadInto images. Metadata padding bits past MetaBits are not cells:
// the twin drops them when it rotates a line, so images are compared
// without them, and the inputs set them at random.
func replayTwin(t *testing.T, name string, dev *pcmdev.Device, tw pcmdev.Array, rng *rand.Rand, ops int) {
	t.Helper()
	cfg := dev.Config()
	lines, metaBytes := cfg.Lines, (cfg.MetaBits+7)/8
	pad := byte(0xff)
	if r := cfg.MetaBits % 8; r != 0 {
		pad = 1<<r - 1
	}
	masked := func(meta []byte) []byte {
		m := bytes.Clone(meta)
		if len(m) > 0 {
			m[len(m)-1] &= pad
		}
		return m
	}
	data, meta := make([]byte, cfg.LineBytes), make([]byte, metaBytes)
	gd, gm := make([]byte, cfg.LineBytes), make([]byte, metaBytes)
	wd, wm := make([]byte, cfg.LineBytes), make([]byte, metaBytes)
	phys := physicalDevice(tw)
	for i := 0; i < ops; i++ {
		line := uint64(rng.Intn(lines))
		what := fmt.Sprintf("%s op %d", name, i)
		dev.PeekInto(line, data, meta)
		switch op := rng.Intn(10); {
		case op < 7:
			switch rng.Intn(4) {
			case 0:
				rng.Read(data)
				rng.Read(meta)
			case 1, 2:
				for n := 1 + rng.Intn(4); n > 0; n-- {
					data[rng.Intn(len(data))] ^= byte(1 + rng.Intn(255))
				}
				if metaBytes > 0 {
					meta[rng.Intn(metaBytes)] ^= byte(rng.Intn(256))
				}
			}
			g, w := dev.Write(line, data, meta), tw.Write(line, data, meta)
			if g.DataFlips != w.DataFlips || g.MetaFlips != w.MetaFlips || g.Slots != w.Slots || !slices.Equal(g.SlotFlips, w.SlotFlips) {
				t.Fatalf("%s: write result %+v, twin %+v", what, g, w)
			}
		case op < 8:
			rng.Read(data)
			rng.Read(meta)
			dev.Load(line, data, meta)
			tw.Load(line, data, meta)
		default:
			dev.ReadInto(line, gd, gm)
			tw.ReadInto(line, wd, wm)
			if !bytes.Equal(gd, wd) || !bytes.Equal(masked(gm), masked(wm)) {
				t.Fatalf("%s: ReadInto of line %d differs from the twin", what, line)
			}
		}
		if g, w := dev.Stats(), tw.Stats(); g != w {
			t.Fatalf("%s: stats %+v, twin %+v", what, g, w)
		}
		if !slices.Equal(dev.PositionWrites(), tw.PositionWrites()) {
			t.Fatalf("%s: position profile differs from the twin", what)
		}
		if !slices.Equal(dev.LineWrites(), tw.LineWrites()) {
			t.Fatalf("%s: line profile %v, twin %v", what, dev.LineWrites(), tw.LineWrites())
		}
		if cfg.TrackPerLineWear {
			for row := range len(dev.LineWrites()) {
				if !slices.Equal(dev.LineWear(uint64(row)), phys.LineWear(uint64(row))) {
					t.Fatalf("%s: wear of row %d differs from the twin", what, row)
				}
			}
		}
		for l := uint64(0); l < uint64(lines); l++ {
			dev.PeekInto(l, gd, gm)
			tw.PeekInto(l, wd, wm)
			if !bytes.Equal(gd, wd) || !bytes.Equal(masked(gm), masked(wm)) {
				t.Fatalf("%s: image of line %d differs from the twin", what, l)
			}
		}
	}
}

// TestRemapMatchesRotatedTwin diffs the wear-leveled device, which stores
// lines in logical order and rotates only what it programs, against the
// twin that stores every line rotated, on every metadata width around the
// byte and word boundaries, under every mode with free and counted moves,
// for Start-Gap and Security Refresh.
func TestRemapMatchesRotatedTwin(t *testing.T) {
	for _, sr := range []bool{false, true} {
		for _, mode := range []Mode{VWLOnly, HWL, HWLHashed} {
			for _, free := range []bool{true, false} {
				policy := "start-gap"
				if sr {
					policy = "security-refresh"
				}
				name := fmt.Sprintf("%s/%s/free=%v", policy, mode, free)
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					for _, lineBytes := range []int{64, 128} {
						for _, metaBits := range []int{0, 1, 32, 33, 64, 65} {
							devCfg := pcmdev.Config{Lines: 8, LineBytes: lineBytes, MetaBits: metaBits, TrackPerLineWear: true}
							dev, tw := newRemapPair(t, devCfg, StartGapConfig{Psi: 3, Mode: mode, FreeGapMoves: free}, sr)
							seed := int64(lineBytes*100 + metaBits)
							replayTwin(t, fmt.Sprintf("%s/l%d/m%d", name, lineBytes, metaBits), dev, tw, rand.New(rand.NewSource(seed)), 300)
						}
					}
				})
			}
		}
	}
}

// FuzzRemapTwin runs replayTwin on fuzzed geometry (line sizes with and
// without a partial 64-byte chunk, metadata widths to 130 cells), policy,
// mode, Psi and move accounting, with the operation mix drawn from seed.
func FuzzRemapTwin(f *testing.F) {
	f.Add(uint8(3), uint8(33), uint8(0x05), uint8(3), int64(1))
	f.Add(uint8(1), uint8(0), uint8(0x0a), uint8(1), int64(2))
	f.Add(uint8(7), uint8(65), uint8(0x1e), uint8(7), int64(3))
	f.Fuzz(func(t *testing.T, lineSel, metaBits, sel, psi uint8, seed int64) {
		devCfg := pcmdev.Config{
			Lines:            []int{4, 8}[sel>>4&1],
			LineBytes:        16 * (1 + int(lineSel)%8),
			MetaBits:         int(metaBits) % 131,
			TrackPerLineWear: sel>>5&1 == 1,
		}
		cfg := StartGapConfig{Psi: 1 + int(psi)%8, Mode: Mode(sel % 3), FreeGapMoves: sel>>2&1 == 1}
		dev, tw := newRemapPair(t, devCfg, cfg, sel>>3&1 == 1)
		replayTwin(t, "fuzz", dev, tw, rand.New(rand.NewSource(seed)), 120)
	})
}
