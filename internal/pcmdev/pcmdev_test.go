package pcmdev

import (
	"math/rand"
	"testing"
	"testing/quick"

	"deuce/internal/bitutil"
)

func dev(t testing.TB, cfg Config) *Device {
	t.Helper()
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Lines: 0}); err == nil {
		t.Error("expected error for zero lines")
	}
	if _, err := New(Config{Lines: 4, LineBytes: 10}); err == nil {
		t.Error("expected error for line size not a slot multiple")
	}
	if _, err := New(Config{Lines: 4, MetaBits: -1}); err == nil {
		t.Error("expected error for negative MetaBits")
	}
	if _, err := New(Config{Lines: 4}); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
}

func TestDefaultsApplied(t *testing.T) {
	d := dev(t, Config{Lines: 2})
	if d.Config().LineBytes != 64 {
		t.Errorf("LineBytes default = %d", d.Config().LineBytes)
	}
	if d.Config().LineBits() != 512 {
		t.Errorf("LineBits = %d", d.Config().LineBits())
	}
}

func TestReadBackAfterWrite(t *testing.T) {
	d := dev(t, Config{Lines: 4, MetaBits: 32})
	data := make([]byte, 64)
	meta := make([]byte, 4)
	rand.New(rand.NewSource(1)).Read(data)
	meta[0] = 0xa5
	d.Write(2, data, meta)
	gotData, gotMeta := make([]byte, 64), make([]byte, 4)
	d.ReadInto(2, gotData, gotMeta)
	if !bitutil.Equal(gotData, data) {
		t.Error("data read-back mismatch")
	}
	if !bitutil.Equal(gotMeta, meta) {
		t.Error("meta read-back mismatch")
	}
	// Other lines untouched.
	other := make([]byte, 64)
	d.ReadInto(3, other, make([]byte, 4))
	if bitutil.PopCount(other) != 0 {
		t.Error("write leaked into another line")
	}
}

func TestDCWFlipCountExact(t *testing.T) {
	d := dev(t, Config{Lines: 1})
	first := make([]byte, 64)
	for i := range first {
		first[i] = 0xff
	}
	res := d.Write(0, first, nil)
	if res.DataFlips != 512 {
		t.Errorf("flips writing all-ones over zeros = %d, want 512", res.DataFlips)
	}
	// Identical rewrite programs nothing.
	res = d.Write(0, first, nil)
	if res.DataFlips != 0 || res.Slots != 0 {
		t.Errorf("identical rewrite cost = %+v, want zero", res)
	}
	if d.Stats().ZeroWrites != 1 {
		t.Errorf("ZeroWrites = %d, want 1", d.Stats().ZeroWrites)
	}
}

// Property: device flips equal the Hamming distance between consecutive
// stored images (invariant 4 in DESIGN.md).
func TestFlipsEqualHamming(t *testing.T) {
	d := dev(t, Config{Lines: 1})
	prev := make([]byte, 64)
	f := func(raw []byte) bool {
		next := make([]byte, 64)
		copy(next, raw)
		want := bitutil.Hamming(prev, next)
		res := d.Write(0, next, nil)
		prev = next
		return res.DataFlips == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSlotAccounting(t *testing.T) {
	d := dev(t, Config{Lines: 1})
	// Flip one bit in chunk 0 and one in chunk 3: two slots.
	data := make([]byte, 64)
	data[0] = 0x01  // chunk 0 (bytes 0-15)
	data[63] = 0x80 // chunk 3 (bytes 48-63)
	res := d.Write(0, data, nil)
	if res.Slots != 2 {
		t.Errorf("Slots = %d, want 2", res.Slots)
	}
	if len(res.SlotFlips) != 2 || res.SlotFlips[0] != 1 || res.SlotFlips[1] != 1 {
		t.Errorf("SlotFlips = %v", res.SlotFlips)
	}
	// Now flip bits in every chunk: 4 slots.
	data2 := bitutil.Clone(data)
	data2[16] ^= 1
	data2[32] ^= 1
	data2[0] ^= 2
	data2[48] ^= 1
	res = d.Write(0, data2, nil)
	if res.Slots != 4 {
		t.Errorf("Slots = %d, want 4", res.Slots)
	}
}

func TestMetaFlipsCounted(t *testing.T) {
	d := dev(t, Config{Lines: 1, MetaBits: 33})
	data := make([]byte, 64)
	meta := make([]byte, 5)
	meta[0] = 0x03 // 2 meta bits set
	meta[4] = 0x01 // bit 32 set
	res := d.Write(0, data, meta)
	if res.MetaFlips != 3 {
		t.Errorf("MetaFlips = %d, want 3", res.MetaFlips)
	}
	if res.DataFlips != 0 {
		t.Errorf("DataFlips = %d, want 0", res.DataFlips)
	}
	if d.Stats().TotalFlips() != 3 {
		t.Errorf("TotalFlips = %d", d.Stats().TotalFlips())
	}
}

// Bits beyond MetaBits in the metadata byte slice must be ignored.
func TestMetaPaddingIgnored(t *testing.T) {
	d := dev(t, Config{Lines: 1, MetaBits: 4})
	meta := []byte{0xf0} // only padding bits set
	res := d.Write(0, make([]byte, 64), meta)
	if res.MetaFlips != 0 {
		t.Errorf("MetaFlips = %d, want 0 (padding bits must not count)", res.MetaFlips)
	}
}

func TestStatsAveragesAndReset(t *testing.T) {
	d := dev(t, Config{Lines: 2})
	a := make([]byte, 64)
	a[0] = 0xff
	d.Write(0, a, nil)
	d.Write(1, a, nil)
	st := d.Stats()
	if st.Writes != 2 || st.DataFlips != 16 {
		t.Fatalf("stats = %+v", st)
	}
	if st.AvgFlipsPerWrite() != 8 {
		t.Errorf("AvgFlipsPerWrite = %v, want 8", st.AvgFlipsPerWrite())
	}
	if st.AvgSlotsPerWrite() != 1 {
		t.Errorf("AvgSlotsPerWrite = %v, want 1", st.AvgSlotsPerWrite())
	}
	d.ResetStats()
	if d.Stats().Writes != 0 {
		t.Error("ResetStats did not clear counters")
	}
	// Contents preserved across reset.
	got, _ := d.Peek(0)
	if got[0] != 0xff {
		t.Error("ResetStats clobbered stored data")
	}
}

func TestEmptyStatsAverages(t *testing.T) {
	var s Stats
	if s.AvgFlipsPerWrite() != 0 || s.AvgSlotsPerWrite() != 0 {
		t.Error("zero-write averages should be 0, not NaN")
	}
}

func TestPositionWrites(t *testing.T) {
	d := dev(t, Config{Lines: 4, MetaBits: 2})
	data := make([]byte, 64)
	data[0] = 0x01 // bit position 0
	meta := []byte{0x02}
	d.Write(0, data, meta)
	d.Write(1, data, meta)
	pw := d.PositionWrites()
	if pw[0] != 2 {
		t.Errorf("posWrites[0] = %d, want 2", pw[0])
	}
	if pw[1] != 0 {
		t.Errorf("posWrites[1] = %d, want 0", pw[1])
	}
	// Metadata bit 1 is global position 512+1.
	if pw[512+1] != 2 {
		t.Errorf("meta position writes = %d, want 2", pw[512+1])
	}
	// Writing the same value again programs nothing.
	d.Write(0, data, meta)
	if d.PositionWrites()[0] != 2 {
		t.Error("identical rewrite incremented wear")
	}
}

func TestPerLineWear(t *testing.T) {
	d := dev(t, Config{Lines: 2, TrackPerLineWear: true})
	data := make([]byte, 64)
	data[7] = 0x80 // bit position 63
	d.Write(1, data, nil)
	w := d.LineWear(1)
	if w[63] != 1 {
		t.Errorf("line wear[63] = %d, want 1", w[63])
	}
	if d.LineWear(0)[63] != 0 {
		t.Error("wear leaked across lines")
	}
}

func TestLineWearPanicsWhenDisabled(t *testing.T) {
	d := dev(t, Config{Lines: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("LineWear without tracking did not panic")
		}
	}()
	d.LineWear(0)
}

func TestWriteWrongSizePanics(t *testing.T) {
	d := dev(t, Config{Lines: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("short write did not panic")
		}
	}()
	d.Write(0, make([]byte, 32), nil)
}

func TestOutOfRangeLinePanics(t *testing.T) {
	d := dev(t, Config{Lines: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range line did not panic")
		}
	}()
	d.Write(1, make([]byte, 64), nil)
}

func TestPeekDoesNotCountRead(t *testing.T) {
	d := dev(t, Config{Lines: 1})
	d.Peek(0)
	if d.Stats().Reads != 0 {
		t.Error("Peek counted as a read")
	}
	d.ReadInto(0, make([]byte, 64), nil)
	if d.Stats().Reads != 1 {
		t.Error("ReadInto not counted")
	}
}

// BenchmarkWrite64 times Device.Write on 64-byte lines in three shapes:
// sparse rewrites 8 random bytes (a plaintext-DCW update), dense writes a
// full random line (counter-mode ciphertext, ~256 flips), and meta32
// rewrites two random words plus 32 metadata cells (a DEUCE write). The
// inputs are generated before the timer starts, so only the device runs.
func BenchmarkWrite64(b *testing.B) {
	for _, bc := range []struct {
		name     string
		metaBits int
		dataLen  int
	}{
		{"sparse", 0, 8},
		{"dense", 0, 64},
		{"meta32", 32, 16},
	} {
		b.Run(bc.name, func(b *testing.B) {
			const lines, images = 1024, 251 // coprime, so a line never sees its own image again
			d := MustNew(Config{Lines: lines, MetaBits: bc.metaBits})
			rng := rand.New(rand.NewSource(5))
			data := make([][]byte, images)
			meta := make([][]byte, images)
			for i := range data {
				data[i] = make([]byte, 64)
				rng.Read(data[i][:bc.dataLen])
				if bc.metaBits > 0 {
					meta[i] = make([]byte, bc.metaBits/8)
					rng.Read(meta[i])
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.Write(uint64(i%lines), data[i%images], meta[i%images])
			}
		})
	}
}

// TestWriteZeroAllocs pins Device.Write allocation-free in the dense
// (counter-mode) and meta32 (DEUCE) shapes. Each measured run is
// foldEvery+stageDepth writes, so it always crosses a fold and several
// absorbs, and any allocation among them shows in the per-run count.
func TestWriteZeroAllocs(t *testing.T) {
	for _, metaBits := range []int{0, 32} {
		d := MustNew(Config{Lines: 8, MetaBits: metaBits})
		rng := rand.New(rand.NewSource(3))
		data, meta := make([]byte, 64), make([]byte, metaBits/8)
		i := 0
		allocs := testing.AllocsPerRun(5, func() {
			for n := 0; n < foldEvery+stageDepth; n++ {
				rng.Read(data)
				rng.Read(meta)
				d.Write(uint64(i%8), data, meta)
				i++
			}
		})
		if allocs != 0 {
			t.Errorf("meta%d: %v allocations per %d writes, want 0", metaBits, allocs, foldEvery+stageDepth)
		}
	}
}

func TestLoadBypassesAccounting(t *testing.T) {
	d := MustNew(Config{Lines: 2, MetaBits: 8})
	data := make([]byte, 64)
	data[0] = 0xff
	meta := []byte{0x0f}
	d.Load(1, data, meta)
	if d.Stats().Writes != 0 || d.Stats().TotalFlips() != 0 {
		t.Error("Load affected statistics")
	}
	gd, gm := d.Peek(1)
	if gd[0] != 0xff || gm[0] != 0x0f {
		t.Error("Load did not store")
	}
	// Nil metadata keeps the stored metadata.
	d.Load(1, data, nil)
	_, gm = d.Peek(1)
	if gm[0] != 0x0f {
		t.Error("nil-meta Load clobbered metadata")
	}
}

func TestLoadValidation(t *testing.T) {
	d := MustNew(Config{Lines: 1, MetaBits: 8})
	for _, f := range []func(){
		func() { d.Load(0, make([]byte, 32), nil) },             // short data
		func() { d.Load(0, make([]byte, 64), make([]byte, 9)) }, // wrong meta len
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid Load did not panic")
				}
			}()
			f()
		}()
	}
}

func TestLineWrites(t *testing.T) {
	d := MustNew(Config{Lines: 4})
	data := make([]byte, 64)
	data[0] = 1
	d.Write(2, data, nil)
	d.Write(2, data, nil) // zero-flip write still counts as a write op
	d.Write(3, data, nil)
	lw := d.LineWrites()
	if lw[2] != 2 || lw[3] != 1 || lw[0] != 0 {
		t.Errorf("LineWrites = %v", lw)
	}
	d.ResetStats()
	if d.LineWrites()[2] != 0 {
		t.Error("ResetStats did not clear line writes")
	}
}

func TestAccessors(t *testing.T) {
	d := MustNew(Config{Lines: 3})
	if d.Lines() != 3 {
		t.Errorf("Lines = %d", d.Lines())
	}
	var r WriteResult
	r.DataFlips, r.MetaFlips = 3, 2
	if r.TotalFlips() != 5 {
		t.Errorf("WriteResult.TotalFlips = %d", r.TotalFlips())
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew with bad config did not panic")
		}
	}()
	MustNew(Config{Lines: 0})
}
