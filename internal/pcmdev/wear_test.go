package pcmdev

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
)

// diffDevice compares d against its reference: statistics, the position
// and line profiles, and the stored page and per-line wear of each of the
// given lines. It returns the first difference found.
func diffDevice(d *Device, r *refDevice, lines []uint64) error {
	if d.Stats() != r.stats {
		return fmt.Errorf("Stats = %+v, reference %+v", d.Stats(), r.stats)
	}
	if got := d.PositionWrites(); !slices.Equal(got, r.posWrites) {
		for p := range got {
			if got[p] != r.posWrites[p] {
				return fmt.Errorf("PositionWrites[%d] = %d, reference %d", p, got[p], r.posWrites[p])
			}
		}
		return fmt.Errorf("PositionWrites has %d positions, reference %d", len(got), len(r.posWrites))
	}
	if !slices.Equal(d.LineWrites(), r.lineWrites) {
		return fmt.Errorf("LineWrites = %v, reference %v", d.LineWrites(), r.lineWrites)
	}
	for _, l := range lines {
		data, meta := d.Peek(l)
		if page := append(data, meta...); !bytes.Equal(page, r.pages[l]) {
			return fmt.Errorf("line %d stores %x, reference %x", l, page, r.pages[l])
		}
		if r.lineWear != nil && !slices.Equal(d.LineWear(l), r.lineWear[l]) {
			return fmt.Errorf("LineWear(%d) = %v, reference %v", l, d.LineWear(l), r.lineWear[l])
		}
	}
	return nil
}

// diffResult compares one write's cost with the reference's.
func diffResult(got, want WriteResult) error {
	if got.DataFlips != want.DataFlips || got.MetaFlips != want.MetaFlips || got.Slots != want.Slots ||
		!slices.Equal(got.SlotFlips, want.SlotFlips) {
		return fmt.Errorf("WriteResult = %+v, reference %+v", got, want)
	}
	return nil
}

// allLines lists every line of cfg, for full-array comparisons.
func allLines(cfg Config) []uint64 {
	out := make([]uint64, cfg.Lines)
	for i := range out {
		out[i] = uint64(i)
	}
	return out
}

// wearPair is a device, its reference and the programming writes both
// have taken since their last ResetStats: the plane folds crossed are
// progWrites/foldEvery.
type wearPair struct {
	d          *Device
	r          *refDevice
	progWrites int
}

// write applies one write to both sides and compares the results, the
// written line and every profile.
func (p *wearPair) write(line uint64, data, meta []byte) error {
	got := p.d.Write(line, data, meta)
	want := p.r.Write(line, data, meta)
	if err := diffResult(got, want); err != nil {
		return err
	}
	if want.TotalFlips() > 0 {
		p.progWrites++
	}
	return diffDevice(p.d, p.r, []uint64{line})
}

func (p *wearPair) fork() *wearPair {
	return &wearPair{d: p.d.Fork(), r: p.r.fork(), progWrites: p.progWrites}
}

func (p *wearPair) reset() {
	p.d.ResetStats()
	p.r.resetStats()
	p.progWrites = 0
}

// randomImage returns the next line image for a random write shape:
// a few flipped bits, a fully random (counter-mode) line, an identical
// rewrite, a metadata-only change, or one random slot. Metadata images
// carry random padding bits past MetaBits, which must never count.
func randomImage(rng *rand.Rand, cfg Config, cur []byte) (data, meta []byte) {
	page := bytes.Clone(cur)
	switch rng.Intn(5) {
	case 0:
		for n := rng.Intn(8); n >= 0; n-- {
			b := rng.Intn(len(page) * 8)
			page[b/8] ^= 1 << (b % 8)
		}
	case 1:
		rng.Read(page)
	case 2:
	case 3:
		rng.Read(page[cfg.LineBytes:])
	case 4:
		s := rng.Intn(cfg.LineBytes / (SlotBits / 8))
		rng.Read(page[s*SlotBits/8 : (s+1)*SlotBits/8])
	}
	data, meta = page[:cfg.LineBytes], page[cfg.LineBytes:]
	if cfg.MetaBits == 0 {
		meta = nil
	}
	return data, meta
}

// TestWearMatchesReference drives the bit-sliced device and the per-flip
// reference through the same random writes, forks, resets and profile
// reads, comparing everything observable after every step. Each geometry
// starts with a burst that fills the planes to the fold bound and runs
// long enough for its longest lineage to cross at least two folds.
func TestWearMatchesReference(t *testing.T) {
	const steps = 3000
	for _, lineBytes := range []int{64, 128} {
		for _, metaBits := range []int{0, 1, 8, 32, 33, 64, 65} {
			for _, track := range []bool{false, true} {
				cfg := Config{Lines: 6, LineBytes: lineBytes, MetaBits: metaBits, TrackPerLineWear: track}
				t.Run(fmt.Sprintf("%dB/meta%d/track=%v", lineBytes, metaBits, track), func(t *testing.T) {
					rng := rand.New(rand.NewSource(int64(lineBytes*1000 + metaBits*2 + len(fmt.Sprint(track)))))
					pairs := []*wearPair{{d: MustNew(cfg), r: newRef(cfg)}}
					// Saturate first: writing line 0's complement programs
					// every cell each time, so every pending count reaches
					// foldEvery, the most the planes may hold, at each fold.
					for i := 0; i < 2*foldEvery+1; i++ {
						page := bytes.Clone(pairs[0].r.pages[0])
						for j := range page {
							page[j] ^= 0xff
						}
						data, meta := page[:cfg.LineBytes], page[cfg.LineBytes:]
						if cfg.MetaBits == 0 {
							meta = nil
						}
						if err := pairs[0].write(0, data, meta); err != nil {
							t.Fatalf("saturating write %d: %v", i, err)
						}
					}
					for step := 0; step < steps; step++ {
						i := rng.Intn(len(pairs))
						p := pairs[i]
						switch op := rng.Intn(1000); {
						case op < 10:
							// Fork, then keep writing both sides; capped
							// at three live lineages.
							pairs = append(pairs, p.fork())
							if len(pairs) > 3 {
								pairs = pairs[1:]
							}
						case op < 14 && step < steps/10:
							p.reset()
						default:
							line := uint64(rng.Intn(cfg.Lines))
							data, meta := randomImage(rng, cfg, p.r.pages[line])
							if err := p.write(line, data, meta); err != nil {
								t.Fatalf("step %d: %v", step, err)
							}
						}
					}
					most := 0
					for _, p := range pairs {
						if err := diffDevice(p.d, p.r, allLines(cfg)); err != nil {
							t.Fatal(err)
						}
						most = max(most, p.progWrites)
					}
					if most < 2*foldEvery {
						t.Fatalf("longest lineage took %d programming writes, want >= %d (two folds)", most, 2*foldEvery)
					}
				})
			}
		}
	}
}

// TestWearStageBoundaries walks one lineage through every programming-write
// count n in [0, 2·foldEvery+stageDepth], so every stage row, every absorb
// and the first two folds are each observed. At each n it compares the
// profiles with the reference, then forks the pair and writes the fork past
// its next absorb (checking the original did not move), and resets a
// second fork, checking it and its next writes. Every programming write is
// followed by a zero-flip rewrite, which must not take a stage row.
func TestWearStageBoundaries(t *testing.T) {
	for _, cfg := range []Config{
		{Lines: 3},
		{Lines: 3, MetaBits: 33, TrackPerLineWear: true},
	} {
		t.Run(fmt.Sprintf("meta%d", cfg.MetaBits), func(t *testing.T) {
			cfg.setDefaults()
			rng := rand.New(rand.NewSource(int64(cfg.MetaBits)))
			// program writes a fresh random image to a random line of
			// p, then rewrites the line unchanged.
			program := func(p *wearPair) error {
				line := uint64(rng.Intn(cfg.Lines))
				page := make([]byte, cfg.PageBytes())
				rng.Read(page)
				data, meta := page[:cfg.LineBytes], page[cfg.LineBytes:]
				if cfg.MetaBits == 0 {
					meta = nil
				}
				if err := p.write(line, data, meta); err != nil {
					return err
				}
				return p.write(line, data, meta)
			}
			p := &wearPair{d: MustNew(cfg), r: newRef(cfg)}
			for n := 0; n <= 2*foldEvery+stageDepth; n++ {
				if p.progWrites != n {
					t.Fatalf("lineage took %d programming writes, want %d", p.progWrites, n)
				}
				if err := diffDevice(p.d, p.r, allLines(cfg)); err != nil {
					t.Fatalf("n=%d: %v", n, err)
				}
				f := p.fork()
				for i := 0; i <= stageDepth; i++ {
					if err := program(f); err != nil {
						t.Fatalf("n=%d, fork write %d: %v", n, i, err)
					}
				}
				if err := diffDevice(p.d, p.r, allLines(cfg)); err != nil {
					t.Fatalf("n=%d, original after the fork's writes: %v", n, err)
				}
				g := p.fork()
				g.reset()
				if err := diffDevice(g.d, g.r, allLines(cfg)); err != nil {
					t.Fatalf("n=%d, after ResetStats: %v", n, err)
				}
				if err := program(g); err != nil {
					t.Fatalf("n=%d, write after ResetStats: %v", n, err)
				}
				if err := program(p); err != nil {
					t.Fatalf("n=%d: %v", n, err)
				}
			}
		})
	}
}

// FuzzDeviceWrite checks the device against the per-flip reference on
// fuzzed geometry and images. The first three bytes pick the geometry;
// then each op byte (low two bits) writes an image, forks, resets, or
// writes an image and its complement alternately up to 505 times, which
// crosses plane folds.
func FuzzDeviceWrite(f *testing.F) {
	f.Add([]byte{3, 32, 0, 0, 0, 0xff, 0x0f})
	f.Add([]byte{7, 65, 3, 0xff, 1, 0xaa, 0x55, 1, 2, 0xfe, 3})
	f.Add(append([]byte{3, 33, 1, 0xff, 0}, bytes.Repeat([]byte{0x5a}, 80)...))
	// Stop mid-stage: 17 alternating writes leave one row staged after an
	// absorb; a fork then takes a second row; 241 writes leave one row
	// staged after a fold, then a reset and one more write.
	f.Add(append([]byte{3, 33, 0, 3 | 2<<2, 0}, bytes.Repeat([]byte{0xc3}, 69)...))
	f.Add(append(append([]byte{3, 0, 2, 3 | 2<<2, 1}, bytes.Repeat([]byte{0x3c}, 64)...), 1, 0, 0, 1, 0xff))
	f.Add(append(append([]byte{3, 32, 1, 3 | 30<<2, 0}, bytes.Repeat([]byte{0x96}, 68)...), 2, 0, 0, 0, 0x01))
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 3 {
			return
		}
		cfg := Config{
			Lines:            1 + int(in[2]>>1)%4,
			LineBytes:        SlotBits / 8 * (1 + int(in[0])%8),
			MetaBits:         int(in[1]) % 80,
			TrackPerLineWear: in[2]&1 == 1,
		}
		in = in[3:]
		next := func(n int) []byte {
			b := make([]byte, n)
			in = in[copy(b, in):]
			return b
		}
		image := func() (data, meta []byte) {
			page := next(cfg.PageBytes())
			data, meta = page[:cfg.LineBytes], page[cfg.LineBytes:]
			if cfg.MetaBits == 0 {
				meta = nil
			}
			return data, meta
		}
		pairs := []*wearPair{{d: MustNew(cfg), r: newRef(cfg)}}
		p := pairs[0]
		for len(in) >= 2 {
			op, line := in[0], uint64(in[1])%uint64(cfg.Lines)
			in = in[2:]
			switch op & 3 {
			case 0:
				data, meta := image()
				if err := p.write(line, data, meta); err != nil {
					t.Fatal(err)
				}
			case 1:
				p = p.fork()
				pairs = append(pairs, p)
			case 2:
				p.reset()
			case 3:
				data, meta := image()
				inv := func(b []byte) []byte {
					out := bytes.Clone(b)
					for i := range out {
						out[i] ^= 0xff
					}
					return out
				}
				idata, imeta := inv(data), inv(meta)
				for n := 1 + int(op>>2)*8; n > 0; n-- {
					if err := p.write(line, data, meta); err != nil {
						t.Fatal(err)
					}
					data, meta, idata, imeta = idata, imeta, data, meta
				}
			}
		}
		for _, p := range pairs {
			if err := diffDevice(p.d, p.r, allLines(cfg)); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// TestForkConcurrentReadOnly pins the read-only contract the warm cache
// relies on: a frozen device with pending planes is read and forked from
// several goroutines at once (the forks being written), and every profile
// and fork still equals the frozen device's. Run it under -race.
func TestForkConcurrentReadOnly(t *testing.T) {
	d := MustNew(Config{Lines: 8, MetaBits: 33, TrackPerLineWear: true})
	cfg := d.Config()
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 3*foldEvery+17; i++ {
		data, meta := make([]byte, cfg.LineBytes), make([]byte, 5)
		rng.Read(data)
		rng.Read(meta)
		d.Write(uint64(rng.Intn(cfg.Lines)), data, meta)
	}
	if d.pending == 0 || d.nstaged == 0 {
		t.Fatalf("warmup left %d writes in the planes and %d staged; the test would not exercise both", d.pending, d.nstaged)
	}
	wantPW, wantStats, wantLW := d.PositionWrites(), d.Stats(), d.LineWrites()
	pages := make([][]byte, cfg.Lines)
	for l := range pages {
		data, meta := d.Peek(uint64(l))
		pages[l] = append(data, meta...)
	}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 20; i++ {
				if !slices.Equal(d.PositionWrites(), wantPW) {
					t.Error("PositionWrites of the frozen device changed")
					return
				}
				f := d.Fork()
				if !slices.Equal(f.PositionWrites(), wantPW) || f.Stats() != wantStats || !slices.Equal(f.LineWrites(), wantLW) {
					t.Error("fork profile differs from the frozen device's")
					return
				}
				for l := range pages {
					data, meta := f.Peek(uint64(l))
					if !bytes.Equal(append(data, meta...), pages[l]) {
						t.Errorf("fork line %d differs from the frozen device's", l)
						return
					}
				}
				for w := 0; w < foldEvery; w++ {
					data, meta := make([]byte, cfg.LineBytes), make([]byte, 5)
					rng.Read(data)
					rng.Read(meta)
					f.Write(uint64(rng.Intn(cfg.Lines)), data, meta)
				}
			}
		}(int64(g))
	}
	wg.Wait()
	if !slices.Equal(d.PositionWrites(), wantPW) || d.Stats() != wantStats {
		t.Error("frozen device changed under concurrent forks")
	}
}

// TestForkKeepsSlotScratch pins that a fork's slot scratch is sized for a
// full line whatever the original's last write used: a fork taken after a
// 1-slot write must not allocate on its first 4-slot write. The allocation
// is counted with a MemStats delta around that single call, since
// AllocsPerRun's warm-up call would hide a one-time allocation.
func TestForkKeepsSlotScratch(t *testing.T) {
	d := MustNew(Config{Lines: 2})
	one := make([]byte, 64)
	one[0] = 1
	if res := d.Write(0, one, nil); res.Slots != 1 {
		t.Fatalf("setup write used %d slots, want 1", res.Slots)
	}
	f := d.Fork()
	full := make([]byte, 64)
	for i := range full {
		full[i] = 0xff
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res := f.Write(1, full, nil)
	runtime.ReadMemStats(&after)
	if res.Slots != 4 {
		t.Fatalf("full-line write used %d slots, want 4", res.Slots)
	}
	if n := after.Mallocs - before.Mallocs; n != 0 {
		t.Errorf("fork's first full-line write allocated %d times, want 0", n)
	}
}
