package pcmdev

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"deuce/internal/backend"
	"deuce/internal/bitutil"
)

// refTracked is the byte-loop statement of the tracked-word rule: the
// image a tracked write of pt stores over the line (data, meta). A word is
// re-programmed to pt ^ padL, and its bit set, when its bit is set or any
// of its bytes differs from pt ^ padT; a reset re-programs every word and
// clears every bit. Metadata bits past the word count are left alone.
func refTracked(data, meta, pt, padL, padT []byte, w int, reset bool) (newData, newMeta []byte) {
	newData, newMeta = bytes.Clone(data), bytes.Clone(meta)
	for i := 0; i < len(data)/w; i++ {
		set := !reset && bitutil.GetBit(meta, i)
		for j := i * w; j < (i+1)*w && !reset && !set; j++ {
			set = data[j] != pt[j]^padT[j]
		}
		if reset || set {
			for j := i * w; j < (i+1)*w; j++ {
				newData[j] = pt[j] ^ padL[j]
			}
		}
		bitutil.SetBit(newMeta, i, set)
	}
	return newData, newMeta
}

// FuzzWriteTracked checks WriteTracked against refTracked followed by
// Write on a twin device, over a fuzzed sequence of stored images (Load,
// padding bits included) and tracked writes with fuzzed plaintext, pads
// and reset. After every write the two devices must report the same
// WriteResult and hold the same cells; at the end, the same statistics
// and wear profiles.
func FuzzWriteTracked(f *testing.F) {
	f.Add([]byte{3, 1, 1, 0, 0xff, 0x0f, 0x33})
	f.Add([]byte{0, 0, 0, 1, 0, 1, 0, 0xa5})
	f.Add(append([]byte{2, 0x0e, 1, 0}, bytes.Repeat([]byte{0x5a, 0, 3}, 90)...))
	f.Add(append([]byte{7, 0x07, 0, 0, 0xff}, bytes.Repeat([]byte{1, 0xc3, 0, 2}, 120)...))
	// A 16-byte line of 8-byte words has 6 padding bits in its metadata
	// byte: load them set, then reset and write.
	f.Add(append(append([]byte{0, 3, 0, 0}, bytes.Repeat([]byte{0xa5}, 16)...), 0xff, 5, 0, 1, 0, 2))
	// Every word tracked, the plaintext unchanged but for one byte: each
	// word is re-programmed under padL all the same.
	f.Add(append(append([]byte{3, 1, 0, 0}, bytes.Repeat([]byte{0x3c}, 64)...), 0xff, 0xff, 0xff, 0xff, 9, 0, 7, 7, 7))
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 2 {
			return
		}
		w := 1 << (in[1] & 3)
		cfg := Config{
			Lines:            1 + int(in[1]>>3)%3,
			LineBytes:        SlotBits / 8 * (1 + int(in[0])%20),
			TrackPerLineWear: in[1]>>2&1 == 1,
		}
		cfg.MetaBits = cfg.LineBytes / w
		in = in[2:]
		next := func(n int) []byte {
			b := make([]byte, n)
			in = in[copy(b, in):]
			return b
		}
		d, twin := MustNew(cfg), MustNew(cfg)
		for writes := 0; len(in) >= 2; writes++ {
			op, line := in[0], uint64(in[1])%uint64(cfg.Lines)
			in = in[2:]
			if op&3 == 0 {
				page := next(cfg.PageBytes())
				d.Load(line, page[:cfg.LineBytes], page[cfg.LineBytes:])
				twin.Load(line, page[:cfg.LineBytes], page[cfg.LineBytes:])
				continue
			}
			reset := op&4 != 0
			pt, padL, padT := next(cfg.LineBytes), next(cfg.LineBytes), next(cfg.LineBytes)
			if op&8 != 0 {
				// Mostly-unchanged words: the stored cells under padT.
				data, _ := twin.Peek(line)
				bitutil.XOR(pt, data, padT)
				pt[int(op)%cfg.LineBytes] ^= op
			}
			data, meta := twin.Peek(line)
			newData, newMeta := refTracked(data, meta, pt, padL, padT, w, reset)
			want := twin.Write(line, newData, newMeta)
			if reset && op&16 != 0 {
				padT = nil
			}
			got := d.WriteTracked(line, pt, padL, padT, w, reset)
			what := fmt.Sprintf("write %d (line %d, w %d, %d bytes, reset %v)", writes, line, w, cfg.LineBytes, reset)
			if got.DataFlips != want.DataFlips || got.MetaFlips != want.MetaFlips || got.Slots != want.Slots || !slices.Equal(got.SlotFlips, want.SlotFlips) {
				t.Fatalf("%s: %+v, reference %+v", what, got, want)
			}
			gd, gm := d.Peek(line)
			if !bytes.Equal(gd, newData) || !bytes.Equal(gm, newMeta) {
				t.Fatalf("%s: stored %x|%x, reference %x|%x", what, gd, gm, newData, newMeta)
			}
		}
		if d.Stats() != twin.Stats() {
			t.Fatalf("stats %+v, reference %+v", d.Stats(), twin.Stats())
		}
		if !slices.Equal(d.PositionWrites(), twin.PositionWrites()) || !slices.Equal(d.LineWrites(), twin.LineWrites()) {
			t.Fatal("wear profile differs from reference")
		}
		if cfg.TrackPerLineWear {
			for l := 0; l < cfg.Lines; l++ {
				if !slices.Equal(d.LineWear(uint64(l)), twin.LineWear(uint64(l))) {
					t.Fatalf("line %d wear differs from reference", l)
				}
			}
		}
	})
}

// pageWrites is a RAM backend without the zero-copy page view that counts
// WritePage calls.
type pageWrites struct {
	backend.Backend
	n int
}

func (b *pageWrites) WritePage(page int, src []byte) error {
	b.n++
	return b.Backend.WritePage(page, src)
}

// TestWriteTrackedZeroFlipStoresNothing pins that a tracked write which
// programs no cell stores nothing: on a backend without the page view it
// issues no WritePage, and it counts as a zero write.
func TestWriteTrackedZeroFlipStoresNothing(t *testing.T) {
	cfg := Config{Lines: 2, LineBytes: 64, MetaBits: 32}
	be := &pageWrites{Backend: backend.NewMem(cfg.Lines, cfg.PageBytes())}
	d, err := NewOnBackend(cfg, be)
	if err != nil {
		t.Fatal(err)
	}
	pad := bytes.Repeat([]byte{0x3c}, cfg.LineBytes)
	// Stored cells zero, bits clear, pt ^ padT zero: no word changes.
	if res := d.WriteTracked(1, pad, pad, pad, 2, false); res.TotalFlips() != 0 || res.Slots != 0 {
		t.Fatalf("unchanged tracked write cost %+v", res)
	}
	if be.n != 0 || d.Stats().ZeroWrites != 1 || d.Stats().Writes != 1 {
		t.Fatalf("zero-flip write: %d WritePage calls, stats %+v", be.n, d.Stats())
	}
	// A changed word is stored once.
	pt := bytes.Clone(pad)
	pt[5] ^= 1
	if res := d.WriteTracked(1, pt, pad, pad, 2, false); res.DataFlips != 1 || res.MetaFlips != 1 {
		t.Fatalf("one-bit tracked write cost %+v", res)
	}
	if be.n != 1 || d.Stats().ZeroWrites != 1 {
		t.Fatalf("programming write: %d WritePage calls, stats %+v", be.n, d.Stats())
	}
}

// BenchmarkWriteTracked64 is the device half of a DEUCE write on a 64-byte
// line with 2-byte words: a sparse plaintext change under fixed pads, one
// reset every 32 writes.
func BenchmarkWriteTracked64(b *testing.B) {
	d := MustNew(Config{Lines: 64, MetaBits: 32})
	pt := make([]byte, 64)
	pads := make([]byte, 128)
	for i := range pads {
		pads[i] = byte(i * 7)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pt[i&63] ^= 0x11
		d.WriteTracked(uint64(i&63), pt, pads[:64], pads[64:], 2, i&31 == 0)
	}
}
