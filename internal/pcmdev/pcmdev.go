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
	"slices"

	"deuce/internal/backend"
	"deuce/internal/bitutil"
)

// Default geometry constants matching the paper's configuration (Table 1).
const (
	DefaultLineBytes = 64  // cache line size
	SlotBits         = 128 // write-slot width, from the 8Gb PCM prototype [19]
	MaxFlipsPerSlot  = 64  // internal FNW provisioning per slot [22]
)

// Wear accounting runs in three tiers. Write stages each programming
// write's flip words as one row of a stageDepth-row stage; a full stage is
// absorbed into planeDepth bit planes per word of cells, so a position's
// pending program count holds planeDepth bits; and the planes fold into
// the profile every foldEvery programming writes — whole stages, the most
// that fit under the planes' 2^planeDepth−1 bound.
const (
	planeDepth = 8
	stageDepth = 16
	foldEvery  = (1<<planeDepth - 1) / stageDepth * stageDepth
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

// wearWords returns the 64-cell words wear is accounted in: the data words,
// then the metadata cells rounded up to a word.
func (c Config) wearWords() int { return c.LineBytes/8 + (c.MetaBits+63)/64 }

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

// Device is a simulated PCM array. No method is safe for concurrent use:
// Write, Read, Load and ResetStats mutate it, and so does PositionWrites,
// which absorbs the staged rows and folds the wear planes in place. The
// experiment harness runs one device per goroutine.
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
	// lines — is posWrites plus the pending counts in planes plus the
	// flips staged in stage. planes[w][k] holds bit k of the pending count
	// of positions w*64..w*64+63: words [0,LineBytes/8) are data, the rest
	// metadata, the page's own [data][meta] order. stage[w][r] holds the
	// flips of those positions in staged row r, one row per programming
	// write: Write fills row nstaged instead of touching any counter,
	// absorb adds a full stage into the planes with a carry-save tree,
	// pending counts the writes absorbed since the last fold, and fold
	// moves the planes into posWrites every foldEvery of them. posWrites
	// spans whole words; the positions of the last metadata word past
	// MetaBits are padding and stay zero.
	posWrites []uint64
	planes    [][planeDepth]uint64
	pending   int
	stage     [][stageDepth]uint64
	nstaged   int

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
		posWrites:   make([]uint64, 64*cfg.wearWords()),
		planes:      make([][planeDepth]uint64, cfg.wearWords()),
		stage:       make([][stageDepth]uint64, cfg.wearWords()),
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
// flips and stores them into the next stage row. Metadata cells take the
// same path as the words after the data. A write that programs no cell
// leaves its row to be overwritten; every stageDepth-th programming write
// absorbs the stage into the wear planes (see absorb).
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
	// nstaged is always below stageDepth; the mask tells the compiler so.
	stage, r := d.stage, d.nstaged&(stageDepth-1)
	res := WriteResult{}

	// Data cells, one 128-bit slot (two words) at a time.
	slots := d.slotScratch[:0]
	dataWords := d.lineBytes / 8
	for w := 0; w < dataWords; w += SlotBits / 64 {
		x0 := binary.LittleEndian.Uint64(old[w*8:]) ^ binary.LittleEndian.Uint64(newData[w*8:])
		x1 := binary.LittleEndian.Uint64(old[w*8+8:]) ^ binary.LittleEndian.Uint64(newData[w*8+8:])
		stage[w][r], stage[w+1][r] = x0, x1
		if f := bits.OnesCount64(x0) + bits.OnesCount64(x1); f > 0 {
			slots = append(slots, f)
			res.DataFlips += f
		}
	}
	d.slotScratch = slots
	res.Slots, res.SlotFlips = len(slots), slots
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
			stage[dataWords+off/8][r] = x
			res.MetaFlips += bits.OnesCount64(x)
		}
		if res.MetaFlips > 0 {
			copy(oldMeta, newMeta)
		}
	}
	if res.DataFlips+res.MetaFlips > 0 {
		d.flushPage(line, p)
		if d.lineWear != nil {
			addLineWear(d.lineWear[line], stage, r)
		}
		if d.nstaged++; d.nstaged == stageDepth {
			d.absorb()
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

// addLineWear counts one program of every cell set in staged row r into
// the per-line wear counters lw, one increment per set bit.
func addLineWear(lw []uint32, stage [][stageDepth]uint64, r int) {
	for w := range stage {
		for x := stage[w][r]; x != 0; x &= x - 1 {
			lw[w*64+bits.TrailingZeros64(x)]++
		}
	}
}

// absorb adds the full stage into the planes and empties it, folding the
// planes into posWrites once they hold foldEvery writes.
func (d *Device) absorb() {
	absorbStage(d.planes, d.stage)
	d.nstaged = 0
	if d.pending += stageDepth; d.pending == foldEvery {
		d.fold()
	}
}

// csa is a carry-save adder over 64 bit lanes: per lane, a+b+c = 2·hi+lo.
func csa(a, b, c uint64) (hi, lo uint64) {
	u := a ^ b
	return a&b | u&c, u ^ c
}

// absorbStage adds the stageDepth rows of stage into the planes: one
// program per set bit. Per word a Harley–Seal tree of 15 carry-save adders
// counts the 16 rows into a bit-sliced 5-bit sum, and a ripple-carry add of
// fixed depth puts the sum into the planes; no branch depends on the data.
// The caller keeps every plane count plus stageDepth within 2^planeDepth−1.
func absorbStage(planes [][planeDepth]uint64, stage [][stageDepth]uint64) {
	for w := range planes {
		s := &stage[w]
		var ones, twos, fours, eights, twosA, twosB, foursA, foursB, eightsA, eightsB uint64
		twosA, ones = csa(ones, s[0], s[1])
		twosB, ones = csa(ones, s[2], s[3])
		foursA, twos = csa(twos, twosA, twosB)
		twosA, ones = csa(ones, s[4], s[5])
		twosB, ones = csa(ones, s[6], s[7])
		foursB, twos = csa(twos, twosA, twosB)
		eightsA, fours = csa(fours, foursA, foursB)
		twosA, ones = csa(ones, s[8], s[9])
		twosB, ones = csa(ones, s[10], s[11])
		foursA, twos = csa(twos, twosA, twosB)
		twosA, ones = csa(ones, s[12], s[13])
		twosB, ones = csa(ones, s[14], s[15])
		foursB, twos = csa(twos, twosA, twosB)
		eightsB, fours = csa(fours, foursA, foursB)
		sixteens, eights := csa(eights, eightsA, eightsB)

		pl := &planes[w]
		var c uint64
		c, pl[0] = csa(pl[0], ones, 0)
		c, pl[1] = csa(pl[1], twos, c)
		c, pl[2] = csa(pl[2], fours, c)
		c, pl[3] = csa(pl[3], eights, c)
		c, pl[4] = csa(pl[4], sixteens, c)
		for k := 5; k < planeDepth; k++ {
			pl[k], c = pl[k]^c, pl[k]&c
		}
	}
}

// fold moves the pending plane counts into posWrites and clears the
// planes. absorb calls it once the planes hold foldEvery writes, the last
// whole stage before a planeDepth-bit count could overflow.
func (d *Device) fold() {
	addPlanes(d.posWrites, d.planes)
	clear(d.planes)
	d.pending = 0
}

// addPlanes adds the counts held in bit-sliced planes to the per-position
// profile pos: bit k of planes[w][k] at bit b is worth 2^k programs of
// position w*64+b. Byte j of the eight planes of a word is an 8×8 bit
// matrix whose transpose holds the counts of positions w*64+8j to
// w*64+8j+7, one byte each: a byte transpose gathers each column's matrix
// into one word, a bit transpose turns it into counts.
func addPlanes(pos []uint64, planes [][planeDepth]uint64) {
	for w := range planes {
		cnt := (*[64]uint64)(pos[w*64:])
		for j, col := range transposeBytes(planes[w]) {
			c := transpose8(col)
			for b := 0; b < 8; b++ {
				cnt[8*j+b] += c >> (8 * b) & 0xff
			}
		}
	}
}

// transposeBytes transposes the 8×8 byte matrix whose row k is a[k]: byte
// j of a[k] moves to byte k of the result's word j.
func transposeBytes(a [8]uint64) [8]uint64 {
	for k := 0; k < 4; k++ {
		t := (a[k]>>32 ^ a[k+4]) & 0x00000000ffffffff
		a[k], a[k+4] = a[k]^t<<32, a[k+4]^t
	}
	for _, k := range [4]int{0, 1, 4, 5} {
		t := (a[k]>>16 ^ a[k+2]) & 0x0000ffff0000ffff
		a[k], a[k+2] = a[k]^t<<16, a[k+2]^t
	}
	for k := 0; k < 8; k += 2 {
		t := (a[k]>>8 ^ a[k+1]) & 0x00ff00ff00ff00ff
		a[k], a[k+1] = a[k]^t<<8, a[k+1]^t
	}
	return a
}

// transpose8 transposes the 8×8 bit matrix whose row r is byte r of x:
// bit c of byte r moves to bit r of byte c.
func transpose8(x uint64) uint64 {
	t := (x ^ x>>7) & 0x00aa00aa00aa00aa
	x ^= t ^ t<<7
	t = (x ^ x>>14) & 0x0000cccc0000cccc
	x ^= t ^ t<<14
	t = (x ^ x>>28) & 0x00000000f0f0f0f0
	return x ^ t ^ t<<28
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
	clear(d.stage)
	d.nstaged = 0
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
// [LineBits, LineBits+MetaBits) are metadata cells. It absorbs the staged
// rows and folds the planes into the profile first, so it mutates the
// device's wear accounting, though never the counts it reports.
func (d *Device) PositionWrites() []uint64 {
	// Rows from nstaged up hold an earlier stage's flips; absorb only the
	// staged ones. The planes stay within bound: pending is a whole number
	// of stages below foldEvery, and one more stage fits under it.
	for w := range d.stage {
		clear(d.stage[w][d.nstaged:])
	}
	absorbStage(d.planes, d.stage)
	d.nstaged = 0
	d.fold()
	return slices.Clone(d.posWrites[:d.cfg.TotalBitsPerLine()])
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
