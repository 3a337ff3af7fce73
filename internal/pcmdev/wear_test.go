package pcmdev

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// diffDevice compares d against its reference: statistics, the position
// and line profiles, and the stored page and per-line wear of each of the
// given lines. It returns the first difference found. Reading the position
// profile absorbs the staged rows and folds the planes in place.
func diffDevice(d *Device, r *refDevice, lines []uint64) error {
	if got := d.PositionWrites(); !slices.Equal(got, r.posWrites) {
		for p := range got {
			if got[p] != r.posWrites[p] {
				return fmt.Errorf("PositionWrites[%d] = %d, reference %d", p, got[p], r.posWrites[p])
			}
		}
		return fmt.Errorf("PositionWrites has %d positions, reference %d", len(got), len(r.posWrites))
	}
	return diffStored(d, r, lines)
}

// diffStored is diffDevice without the position profile, so it leaves the
// device's staged wear where Write put it.
func diffStored(d *Device, r *refDevice, lines []uint64) error {
	if d.Stats() != r.stats {
		return fmt.Errorf("Stats = %+v, reference %+v", d.Stats(), r.stats)
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
// written line and everything but the position profile, whose reads are
// left to the tests so that stages fill and planes fold as they would
// without them.
func (p *wearPair) write(line uint64, data, meta []byte) error {
	got := p.d.Write(line, data, meta)
	want := p.r.Write(line, data, meta)
	if err := diffResult(got, want); err != nil {
		return err
	}
	if want.TotalFlips() > 0 {
		p.progWrites++
	}
	return diffStored(p.d, p.r, []uint64{line})
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
// reference through the same random writes, resets and profile reads,
// comparing everything observable after every step (the position profile
// only at the reads). Each geometry starts with a burst that fills the
// planes to the fold bound twice without a read, then reads the profile
// mid-stage.
func TestWearMatchesReference(t *testing.T) {
	const steps = 3000
	for _, lineBytes := range []int{64, 128} {
		for _, metaBits := range []int{0, 1, 8, 32, 33, 64, 65} {
			for _, track := range []bool{false, true} {
				cfg := Config{Lines: 6, LineBytes: lineBytes, MetaBits: metaBits, TrackPerLineWear: track}
				t.Run(fmt.Sprintf("%dB/meta%d/track=%v", lineBytes, metaBits, track), func(t *testing.T) {
					rng := rand.New(rand.NewSource(int64(lineBytes*1000 + metaBits*2 + len(fmt.Sprint(track)))))
					p := &wearPair{d: MustNew(cfg), r: newRef(cfg)}
					// Saturate first: writing line 0's complement programs
					// every cell each time, so every pending count reaches
					// foldEvery, the most the planes may hold, at each fold.
					for i := 0; i < 2*foldEvery+1; i++ {
						page := bytes.Clone(p.r.pages[0])
						for j := range page {
							page[j] ^= 0xff
						}
						data, meta := page[:cfg.LineBytes], page[cfg.LineBytes:]
						if cfg.MetaBits == 0 {
							meta = nil
						}
						if err := p.write(0, data, meta); err != nil {
							t.Fatalf("saturating write %d: %v", i, err)
						}
					}
					if err := diffDevice(p.d, p.r, allLines(cfg)); err != nil {
						t.Fatalf("after %d saturating writes: %v", 2*foldEvery+1, err)
					}
					for step := 0; step < steps; step++ {
						switch op := rng.Intn(1000); {
						case op < 10:
							// Read the profile mid-stage, then keep
							// writing against the reference.
							if err := diffDevice(p.d, p.r, allLines(cfg)); err != nil {
								t.Fatalf("step %d: %v", step, err)
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
					if err := diffDevice(p.d, p.r, allLines(cfg)); err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
}

// TestWearStageBoundaries reads the profile at every programming-write
// count n in [0, 2·foldEvery+stageDepth], so a read lands on every stage
// row, every absorb and the first two folds. For each n a fresh pair
// replays the first n programming writes of one fixed sequence and reads
// the profile, then writes past its next absorb and reads it again, then
// resets and writes once more, comparing with the reference at each read.
// Every programming write is followed by a zero-flip rewrite, which must
// not take a stage row.
func TestWearStageBoundaries(t *testing.T) {
	for _, cfg := range []Config{
		{Lines: 3},
		{Lines: 3, MetaBits: 33, TrackPerLineWear: true},
	} {
		t.Run(fmt.Sprintf("meta%d", cfg.MetaBits), func(t *testing.T) {
			cfg.setDefaults()
			var rng *rand.Rand
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
			for n := 0; n <= 2*foldEvery+stageDepth; n++ {
				rng = rand.New(rand.NewSource(int64(cfg.MetaBits)))
				p := &wearPair{d: MustNew(cfg), r: newRef(cfg)}
				for i := 0; i < n; i++ {
					if err := program(p); err != nil {
						t.Fatalf("n=%d, write %d: %v", n, i, err)
					}
				}
				if p.progWrites != n {
					t.Fatalf("took %d programming writes, want %d", p.progWrites, n)
				}
				if p.d.nstaged != n%stageDepth {
					t.Fatalf("n=%d: %d rows staged before the read, want %d", n, p.d.nstaged, n%stageDepth)
				}
				if err := diffDevice(p.d, p.r, allLines(cfg)); err != nil {
					t.Fatalf("n=%d: %v", n, err)
				}
				for i := 0; i <= stageDepth; i++ {
					if err := program(p); err != nil {
						t.Fatalf("n=%d, write %d after the read: %v", n, i, err)
					}
				}
				if err := diffDevice(p.d, p.r, allLines(cfg)); err != nil {
					t.Fatalf("n=%d, after writing past the read: %v", n, err)
				}
				p.reset()
				if err := diffDevice(p.d, p.r, allLines(cfg)); err != nil {
					t.Fatalf("n=%d, after ResetStats: %v", n, err)
				}
				if err := program(p); err != nil {
					t.Fatalf("n=%d, write after ResetStats: %v", n, err)
				}
				if err := diffDevice(p.d, p.r, allLines(cfg)); err != nil {
					t.Fatalf("n=%d, read after ResetStats: %v", n, err)
				}
			}
		})
	}
}

// FuzzDeviceWrite checks the device against the per-flip reference on
// fuzzed geometry and images. The first three bytes pick the geometry;
// then each op byte (low two bits) writes an image, reads the profile,
// resets, or writes an image and its complement alternately up to 505
// times, which crosses plane folds.
func FuzzDeviceWrite(f *testing.F) {
	f.Add([]byte{3, 32, 0, 0, 0, 0xff, 0x0f})
	f.Add([]byte{7, 65, 3, 0xff, 1, 0xaa, 0x55, 1, 2, 0xfe, 3})
	f.Add(append([]byte{3, 33, 1, 0xff, 0}, bytes.Repeat([]byte{0x5a}, 80)...))
	// Stop mid-stage: 17 alternating writes leave one row staged after an
	// absorb; a profile read then absorbs and folds it in place before
	// the next write; 241 writes leave one row staged after a fold, then
	// a reset and one more write.
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
		p := &wearPair{d: MustNew(cfg), r: newRef(cfg)}
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
				if err := diffDevice(p.d, p.r, allLines(cfg)); err != nil {
					t.Fatal(err)
				}
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
		if err := diffDevice(p.d, p.r, allLines(cfg)); err != nil {
			t.Fatal(err)
		}
	})
}
