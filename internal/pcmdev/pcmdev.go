// Package pcmdev models a Phase Change Memory array at bit granularity.
//
// The device is where the paper's figure of merit is measured: every line
// write is applied differentially (Data Comparison Write, paper ref [7]) so
// only cells whose value changes are programmed, and the device counts those
// cell programs ("bit flips") exactly. The device also accounts for:
//
//   - metadata cells per line (FNW flip bits, DEUCE modified bits, DynDEUCE
//     mode bit) whose flips are included in the figure of merit per §3.3;
//   - write slots: PCM prototypes program at most 128 bits per write slot
//     (§6.1, ref [19]), with internal Flip-N-Write provisioning for up to 64
//     flips per slot, so a 64-byte line takes 1-4 slots depending on which
//     128-bit chunks contain flipped cells;
//   - per-bit-position wear: how many times each cell position of a line has
//     been programmed, aggregated across lines (Figure 12) and optionally per
//     line, which drives the endurance/lifetime model in internal/wear.
//
// The device knows nothing about encryption: schemes in internal/core decide
// what ciphertext and metadata image to store, the device stores it and
// reports the cost.
//
// Storage lives behind internal/backend: line l is page l of a Backend whose
// page layout is [LineBytes data][⌈MetaBits/8⌉ metadata]. New builds the
// device on the in-memory backend (the status quo); NewOnBackend accepts a
// file or sharded-directory backend, making cell contents durable across
// Close/reopen. Backends exposing the zero-copy Pager fast path (RAM, mmap)
// keep the write path allocation-free; others go through a scratch page.
//
// Concurrency: a Device is single-goroutine, like every Backend under it;
// the experiment harness runs one device per goroutine.
package pcmdev

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"deuce/internal/backend"
	"deuce/internal/bitutil"
)

// Default geometry constants matching the paper's configuration (Table 1).
const (
	DefaultLineBytes = 64  // cache line size
	SlotBits         = 128 // write-slot width, from the 8Gb PCM prototype [19]
	MaxFlipsPerSlot  = 64  // internal FNW provisioning per slot [22]
)

// planeDepth is the number of bit planes behind each word of cells, so a
// position's pending program count holds planeDepth bits. Write adds at
// most one program per position, so the planes fold into the profile every
// foldEvery programming writes, before any count could overflow.
const (
	planeDepth = 8
	foldEvery  = 1<<planeDepth - 1
)

// Config describes a simulated PCM array.
type Config struct {
	// Lines is the number of cache lines in the array.
	Lines int
	// LineBytes is the data payload per line (default 64).
	LineBytes int
	// MetaBits is the number of per-line metadata cells stored alongside
	// the data (flip bits, modified bits, mode bit). May be zero.
	MetaBits int
	// TrackPerLineWear enables per-line per-bit wear counters in addition
	// to the aggregate per-position profile. Costs Lines×(bits) memory.
	TrackPerLineWear bool
}

func (c *Config) setDefaults() {
	if c.LineBytes == 0 {
		c.LineBytes = DefaultLineBytes
	}
}

// LineBits returns the number of data cells per line.
func (c Config) LineBits() int { return c.LineBytes * 8 }

// PageBytes returns the backend page size this geometry needs: the data
// payload followed by the packed metadata cells. Callers constructing a
// backend for NewOnBackend size its pages with this (and its page count
// with Lines).
func (c Config) PageBytes() int {
	c.setDefaults()
	return c.LineBytes + (c.MetaBits+7)/8
}

// TotalBitsPerLine returns data plus metadata cells per line.
func (c Config) TotalBitsPerLine() int { return c.LineBytes*8 + c.MetaBits }

// Stats aggregates device activity since creation (or the last ResetStats).
type Stats struct {
	Writes     uint64 // line write operations
	Reads      uint64 // line read operations
	DataFlips  uint64 // data cells programmed
	MetaFlips  uint64 // metadata cells programmed
	SlotsUsed  uint64 // total write slots consumed
	ZeroWrites uint64 // writes that programmed no cell at all
}

// TotalFlips returns data plus metadata cell programs.
func (s Stats) TotalFlips() uint64 { return s.DataFlips + s.MetaFlips }

// Delta returns the activity between a prior snapshot and this one: every
// counter of prev subtracted from this Stats. Measured windows should be
// carved out by snapshotting before and after and taking the Delta, rather
// than by resetting the device — ResetStats also clears the wear profile,
// and a reset taken for one consumer silently truncates every other
// consumer's window.
func (s Stats) Delta(prev Stats) Stats {
	return Stats{
		Writes:     s.Writes - prev.Writes,
		Reads:      s.Reads - prev.Reads,
		DataFlips:  s.DataFlips - prev.DataFlips,
		MetaFlips:  s.MetaFlips - prev.MetaFlips,
		SlotsUsed:  s.SlotsUsed - prev.SlotsUsed,
		ZeroWrites: s.ZeroWrites - prev.ZeroWrites,
	}
}

// AvgFlipsPerWrite returns the mean number of cells programmed per line
// write, the paper's figure of merit (§3.3), including metadata cells.
func (s Stats) AvgFlipsPerWrite() float64 {
	if s.Writes == 0 {
		return 0
	}
	return float64(s.TotalFlips()) / float64(s.Writes)
}

// AvgSlotsPerWrite returns the mean write slots per line write (Figure 15).
func (s Stats) AvgSlotsPerWrite() float64 {
	if s.Writes == 0 {
		return 0
	}
	return float64(s.SlotsUsed) / float64(s.Writes)
}

// WriteResult reports the cost of a single line write.
type WriteResult struct {
	DataFlips int // data cells programmed by this write
	MetaFlips int // metadata cells programmed by this write
	Slots     int // write slots consumed (0 if nothing changed)
	// SlotFlips holds the flips in each consumed slot, for power
	// scheduling. It aliases a device-owned scratch buffer and is valid
	// only until the next Write on the same array; callers that retain it
	// across writes must copy it first. This keeps the steady-state write
	// path allocation-free.
	SlotFlips []int
}

// TotalFlips returns data plus metadata flips for the write.
func (r WriteResult) TotalFlips() int { return r.DataFlips + r.MetaFlips }

// Device is a simulated PCM array. Write, Read, Load and ResetStats mutate
// it and need one goroutine at a time; the experiment harness runs one
// device per goroutine. A device nobody writes any more may be read from
// many goroutines at once when its backend is a Pager (RAM, mmap): Stats,
// PositionWrites, LineWrites and Fork only read it (PositionWrites and Fork
// combine the pending wear planes with the folded profile instead of
// folding in place), which is what lets the warm cache fork one frozen
// device per grid cell concurrently.
type Device struct {
	cfg Config

	// be stores the cells: line l is page l, laid out as
	// [LineBytes data][metaBytes metadata].
	be backend.Backend
	// pg is the zero-copy fast path (non-nil for RAM and mmap backends);
	// nil routes every access through pageBuf + ReadPage/WritePage.
	pg backend.Pager
	// pageBuf is the slow-path scratch page, sized PageBytes.
	pageBuf   []byte
	lineBytes int
	metaBytes int

	stats Stats

	// The Figure 12 profile — programs of each bit position (LineBits data
	// positions, then MetaBits metadata positions) aggregated over all
	// lines — is posWrites plus the pending counts in planes. planes[w][k]
	// holds bit k of the pending count of positions w*64..w*64+63: words
	// [0,LineBytes/8) are data, the rest metadata, the page's own
	// [data][meta] order. Write adds each flip word into the planes with a
	// carry-save ripple instead of one posWrites increment per cell;
	// pending counts the writes added since the last fold, and fold moves
	// the planes into posWrites every foldEvery of them.
	posWrites []uint64
	planes    [][planeDepth]uint64
	pending   int

	// lineWrites[l] counts write operations per physical line — the
	// inter-line wear profile that vertical wear leveling flattens.
	lineWrites []uint64

	// lineWear[line][p] is the per-line analogue, enabled by
	// Config.TrackPerLineWear.
	lineWear [][]uint32

	// slotScratch backs WriteResult.SlotFlips so steady-state writes do
	// not allocate; overwritten by every Write.
	slotScratch []int
}

// New creates a PCM array with all cells zero, stored in RAM.
func New(cfg Config) (*Device, error) {
	cfg.setDefaults()
	if err := cfg.check(); err != nil {
		return nil, err
	}
	return NewOnBackend(cfg, backend.NewMem(cfg.Lines, cfg.PageBytes()))
}

// NewOnBackend creates a PCM array whose cells live in be. The backend
// geometry must be exactly Lines pages of Config.PageBytes bytes each; a
// mismatch fails with backend.ErrGeometry. Existing backend contents are
// preserved — reopening a file backend resumes from the stored cells —
// while statistics and wear profiles always start at zero (they are
// volatile controller state; see Serialize).
func NewOnBackend(cfg Config, be backend.Backend) (*Device, error) {
	cfg.setDefaults()
	if err := cfg.check(); err != nil {
		return nil, err
	}
	if be.Pages() != cfg.Lines || be.PageSize() != cfg.PageBytes() {
		return nil, fmt.Errorf("pcmdev: backend holds %d×%dB pages, geometry needs %d×%dB: %w",
			be.Pages(), be.PageSize(), cfg.Lines, cfg.PageBytes(), backend.ErrGeometry)
	}
	d := &Device{
		cfg:         cfg,
		be:          be,
		pg:          backend.AsPager(be),
		lineBytes:   cfg.LineBytes,
		metaBytes:   (cfg.MetaBits + 7) / 8,
		posWrites:   make([]uint64, cfg.TotalBitsPerLine()),
		planes:      make([][planeDepth]uint64, cfg.LineBytes/8+(cfg.MetaBits+63)/64),
		lineWrites:  make([]uint64, cfg.Lines),
		slotScratch: make([]int, 0, cfg.LineBytes*8/SlotBits),
	}
	if d.pg == nil {
		d.pageBuf = make([]byte, cfg.PageBytes())
	}
	if cfg.TrackPerLineWear {
		d.lineWear = make([][]uint32, cfg.Lines)
		for i := range d.lineWear {
			d.lineWear[i] = make([]uint32, cfg.TotalBitsPerLine())
		}
	}
	return d, nil
}

// check validates a defaulted geometry.
func (c Config) check() error {
	if c.Lines <= 0 {
		return fmt.Errorf("pcmdev: Lines must be positive, got %d", c.Lines)
	}
	if c.LineBytes <= 0 || c.LineBytes%(SlotBits/8) != 0 {
		return fmt.Errorf("pcmdev: LineBytes must be a positive multiple of %d, got %d", SlotBits/8, c.LineBytes)
	}
	if c.MetaBits < 0 {
		return fmt.Errorf("pcmdev: negative MetaBits %d", c.MetaBits)
	}
	return nil
}

// page returns the stored page image of a line for in-place mutation. On
// the Pager fast path it aliases live backend storage; otherwise it loads
// the page into the device scratch and the caller must flushPage after
// mutating. Backend I/O failures at this level are programming or media
// errors mid-operation with no way to unwind scheme state, so they panic;
// open-time failures are the typed-error surface.
func (d *Device) page(line uint64) []byte {
	if d.pg != nil {
		return d.pg.Page(int(line))
	}
	if err := d.be.ReadPage(int(line), d.pageBuf); err != nil {
		panic(fmt.Sprintf("pcmdev: backend read of line %d: %v", line, err))
	}
	return d.pageBuf
}

// flushPage writes a mutated slow-path page back; a no-op on the fast path
// (the mutation already hit live storage).
func (d *Device) flushPage(line uint64, p []byte) {
	if d.pg != nil {
		return
	}
	if err := d.be.WritePage(int(line), p); err != nil {
		panic(fmt.Sprintf("pcmdev: backend write of line %d: %v", line, err))
	}
}

// Sync flushes every write so far into the backend's persistence domain
// (a no-op for the in-memory backend).
func (d *Device) Sync() error { return d.be.Sync() }

// Close releases the backend without an implicit Sync.
func (d *Device) Close() error { return d.be.Close() }

// Backend returns the storage under the device, for drills that crash or
// inspect it directly.
func (d *Device) Backend() backend.Backend { return d.be }

// MustNew is New for configurations known to be valid.
func MustNew(cfg Config) *Device {
	d, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return d
}

// Config returns the device geometry.
func (d *Device) Config() Config { return d.cfg }

// Lines returns the number of lines in the array.
func (d *Device) Lines() int { return d.cfg.Lines }

// Read returns copies of the stored data and metadata for the line.
func (d *Device) Read(line uint64) (data, meta []byte) {
	d.checkLine(line)
	d.stats.Reads++
	p := d.page(line)
	return bitutil.Clone(p[:d.lineBytes]), bitutil.Clone(p[d.lineBytes:])
}

// Peek is Read without statistics side effects, for schemes that must
// inspect the stored image while computing a write (read-modify-write is
// already accounted by the caller).
func (d *Device) Peek(line uint64) (data, meta []byte) {
	d.checkLine(line)
	p := d.page(line)
	return bitutil.Clone(p[:d.lineBytes]), bitutil.Clone(p[d.lineBytes:])
}

// PeekInto is Peek into caller-owned buffers: it copies the stored data and
// metadata without allocating, which is what makes zero-allocation scheme
// writes possible. data must be LineBytes long; meta must be ⌈MetaBits/8⌉
// bytes, or nil when the array has no metadata.
func (d *Device) PeekInto(line uint64, data, meta []byte) {
	d.checkLine(line)
	if len(data) != d.cfg.LineBytes {
		panic(fmt.Sprintf("pcmdev: PeekInto data buffer of %d bytes for %d-byte line", len(data), d.cfg.LineBytes))
	}
	p := d.page(line)
	copy(data, p[:d.lineBytes])
	if d.cfg.MetaBits == 0 {
		return
	}
	if len(meta) != d.metaBytes {
		panic(fmt.Sprintf("pcmdev: PeekInto metadata buffer of %d bytes, want %d", len(meta), d.metaBytes))
	}
	copy(meta, p[d.lineBytes:])
}

// ReadInto is Read into caller-owned buffers: the same copy-out as
// PeekInto, with Read's statistics side effect, and no allocation. Buffer
// requirements are PeekInto's: data must be LineBytes long; meta must be
// ⌈MetaBits/8⌉ bytes, or nil when the array has no metadata.
func (d *Device) ReadInto(line uint64, data, meta []byte) {
	d.PeekInto(line, data, meta)
	d.stats.Reads++
}

// Write stores newData and newMeta into the line using Data Comparison
// Write: only cells that differ from the stored image are programmed. It
// returns the exact cost. newMeta may be nil when MetaBits is zero.
//
// One pass over the page does all the accounting: per 128-bit slot it
// loads the two words of old ⊕ new once, popcounts them for the slot's
// flips and adds them into the wear planes (see addWear). Metadata cells
// take the same path as the words after the data.
func (d *Device) Write(line uint64, newData, newMeta []byte) WriteResult {
	d.checkLine(line)
	if len(newData) != d.cfg.LineBytes {
		panic(fmt.Sprintf("pcmdev: write of %d bytes to %d-byte line", len(newData), d.cfg.LineBytes))
	}
	if d.cfg.MetaBits > 0 && len(newMeta) != d.metaBytes {
		panic(fmt.Sprintf("pcmdev: metadata write of %d bytes, want %d", len(newMeta), d.metaBytes))
	}

	p := d.page(line)
	old := p[:d.lineBytes]
	var lw []uint32
	if d.lineWear != nil {
		lw = d.lineWear[line]
	}
	res := WriteResult{}

	// Data cells, one 128-bit slot (two words) at a time.
	d.slotScratch = d.slotScratch[:0]
	dataWords := d.lineBytes / 8
	for w := 0; w < dataWords; w += SlotBits / 64 {
		x0 := binary.LittleEndian.Uint64(old[w*8:]) ^ binary.LittleEndian.Uint64(newData[w*8:])
		x1 := binary.LittleEndian.Uint64(old[w*8+8:]) ^ binary.LittleEndian.Uint64(newData[w*8+8:])
		f := bits.OnesCount64(x0) + bits.OnesCount64(x1)
		if f == 0 {
			continue
		}
		res.Slots++
		d.slotScratch = append(d.slotScratch, f)
		res.DataFlips += f
		d.addWear(lw, w, x0)
		d.addWear(lw, w+1, x1)
	}
	res.SlotFlips = d.slotScratch
	if res.DataFlips > 0 {
		copy(old, newData)
	}

	// Metadata cells, same DCW treatment; bits past MetaBits in the last
	// byte are padding and never count.
	if d.cfg.MetaBits > 0 {
		oldMeta := p[d.lineBytes:]
		for off := 0; off < d.metaBytes; off += 8 {
			x := loadWord(oldMeta[off:]) ^ loadWord(newMeta[off:])
			if rem := d.cfg.MetaBits - off*8; rem < 64 {
				x &= uint64(1)<<uint(rem) - 1
			}
			res.MetaFlips += bits.OnesCount64(x)
			d.addWear(lw, dataWords+off/8, x)
		}
		if res.MetaFlips > 0 {
			copy(oldMeta, newMeta)
		}
	}
	if res.DataFlips+res.MetaFlips > 0 {
		d.flushPage(line, p)
		if d.pending++; d.pending == foldEvery {
			d.fold()
		}
	}

	d.stats.Writes++
	d.lineWrites[line]++
	d.stats.DataFlips += uint64(res.DataFlips)
	d.stats.MetaFlips += uint64(res.MetaFlips)
	d.stats.SlotsUsed += uint64(res.Slots)
	if res.DataFlips+res.MetaFlips == 0 {
		d.stats.ZeroWrites++
	}
	return res
}

// addWear counts one program of every cell set in x, the flips of word w
// (positions w*64 to w*64+63), into the pending wear planes: a carry-save
// increment of 64 bit-sliced counters at once, rippling a carry word up
// the planes until it is zero. With per-line wear tracked it also bumps
// lw once per set bit; posWrites is only ever touched by fold.
func (d *Device) addWear(lw []uint32, w int, x uint64) {
	if lw != nil {
		for y := x; y != 0; y &= y - 1 {
			lw[w*64+bits.TrailingZeros64(y)]++
		}
	}
	pl := &d.planes[w]
	for k := 0; x != 0; k++ {
		c := pl[k] & x
		pl[k] ^= x
		x = c
	}
}

// fold moves the pending plane counts into posWrites and clears the
// planes. Write calls it after every foldEvery-th programming write, the
// last moment before a planeDepth-bit count could overflow.
func (d *Device) fold() {
	addPlanes(d.posWrites, d.planes)
	clear(d.planes)
	d.pending = 0
}

// addPlanes adds the counts held in bit-sliced planes to the per-position
// profile pos: bit k of planes[w][k] at bit b is worth 2^k programs of
// position w*64+b.
func addPlanes(pos []uint64, planes [][planeDepth]uint64) {
	for w := range planes {
		for k, x := range planes[w] {
			for ; x != 0; x &= x - 1 {
				pos[w*64+bits.TrailingZeros64(x)] += 1 << uint(k)
			}
		}
	}
}

// loadWord reads up to eight bytes of b as a little-endian word, leaving
// the missing high bytes zero when b is shorter.
func loadWord(b []byte) uint64 {
	if len(b) >= 8 {
		return binary.LittleEndian.Uint64(b)
	}
	var v uint64
	for i := len(b) - 1; i >= 0; i-- {
		v = v<<8 | uint64(b[i])
	}
	return v
}

// Load stores data (and metadata, which may be nil) into the line without
// any cost accounting. It models the initial placement of pages into memory
// by the memory controller (paper §3.1: "relevant pages have already been
// brought into memory and been initially encrypted"), which is excluded from
// the figure of merit.
func (d *Device) Load(line uint64, data, meta []byte) {
	d.checkLine(line)
	if len(data) != d.cfg.LineBytes {
		panic(fmt.Sprintf("pcmdev: load of %d bytes to %d-byte line", len(data), d.cfg.LineBytes))
	}
	p := d.page(line)
	copy(p[:d.lineBytes], data)
	if meta != nil {
		if len(meta) != d.metaBytes {
			panic(fmt.Sprintf("pcmdev: metadata load of %d bytes, want %d", len(meta), d.metaBytes))
		}
		copy(p[d.lineBytes:], meta)
	}
	d.flushPage(line, p)
}

// Stats returns a snapshot of the device counters.
func (d *Device) Stats() Stats { return d.stats }

// ResetStats zeroes the activity counters and the wear profile. Stored cell
// contents are preserved (useful for warm-up phases: fill the array, reset,
// then measure).
func (d *Device) ResetStats() {
	d.stats = Stats{}
	clear(d.posWrites)
	clear(d.planes)
	d.pending = 0
	for i := range d.lineWrites {
		d.lineWrites[i] = 0
	}
	for _, lw := range d.lineWear {
		for i := range lw {
			lw[i] = 0
		}
	}
}

// PositionWrites returns a copy of the per-bit-position program counts,
// aggregated over all lines. Indices [0,LineBits) are data cells; indices
// [LineBits, LineBits+MetaBits) are metadata cells. It adds the pending
// planes into the copy rather than folding them, so it only reads the
// device.
func (d *Device) PositionWrites() []uint64 {
	out := make([]uint64, len(d.posWrites))
	copy(out, d.posWrites)
	addPlanes(out, d.planes)
	return out
}

// LineWrites returns a copy of the per-physical-line write counts — the
// distribution vertical wear leveling (Start-Gap, Security Refresh) exists
// to flatten.
func (d *Device) LineWrites() []uint64 {
	out := make([]uint64, len(d.lineWrites))
	copy(out, d.lineWrites)
	return out
}

// LineWear returns a copy of the per-bit wear counters for one line.
// It panics unless Config.TrackPerLineWear was set.
func (d *Device) LineWear(line uint64) []uint32 {
	d.checkLine(line)
	if d.lineWear == nil {
		panic("pcmdev: LineWear requires Config.TrackPerLineWear")
	}
	out := make([]uint32, len(d.lineWear[line]))
	copy(out, d.lineWear[line])
	return out
}

func (d *Device) checkLine(line uint64) {
	if line >= uint64(d.cfg.Lines) {
		panic(fmt.Sprintf("pcmdev: line %d out of range [0,%d)", line, d.cfg.Lines))
	}
}
