// Package core implements the paper's primary contribution — DEUCE,
// DynDEUCE and their combinations — together with every write scheme the
// evaluation compares against: unencrypted DCW and Flip-N-Write, baseline
// counter-mode encrypted memory (with and without FNW), Block-Level
// Encryption, and BLE+DEUCE.
//
// Every scheme presents the same contract: a plaintext cache line goes in
// on Write, the same plaintext comes back on ReadInto, and the backing
// pcmdev.Device records exactly how many cells each write programmed. The
// schemes differ only in the stored image they choose, which is the entire
// subject of the paper.
//
// All lines are lazily initialized on first touch to the encrypted (or
// plain) image of the all-zero line at counter zero, modelling the paper's
// assumption that pages are encrypted as they are first placed in memory.
// Initialization bypasses cost accounting (pcmdev.Load).
package core

import (
	"fmt"
	"path/filepath"

	"deuce/internal/backend"
	"deuce/internal/bitutil"
	"deuce/internal/ctrstore"
	"deuce/internal/obs"
	"deuce/internal/otp"
	"deuce/internal/pcmdev"
)

// Scheme is a write/read policy over a simulated PCM array.
type Scheme interface {
	// Name returns the scheme's display name as used in the paper's
	// figures (e.g. "DEUCE", "Encr_FNW").
	Name() string

	// Write stores the 64-byte plaintext into the line and returns the
	// exact device cost of doing so.
	Write(line uint64, plaintext []byte) pcmdev.WriteResult

	// ReadInto decrypts the line's current plaintext into dst, which must
	// be LineBytes long (it panics otherwise). It is the only read path:
	// schemes stage the stored image and pads in their write-path scratch
	// (safe under the single-goroutine contract), so a read allocates
	// nothing, on a bare, wear-leveled or guarded device alike.
	ReadInto(line uint64, dst []byte)

	// Install places initial content into a line without any write-cost
	// accounting, modelling §3.1's assumption that pages are brought
	// into memory and initially encrypted by the memory controller
	// before the measured run. It must be called at most once per line,
	// before any Write or ReadInto touches it; it panics otherwise.
	Install(line uint64, plaintext []byte)

	// OverheadBits returns the per-line metadata storage the scheme adds
	// on top of the baseline encrypted memory (Table 3). The per-line
	// encryption counter itself is part of the baseline and not counted.
	OverheadBits() int

	// Device exposes the backing PCM array for statistics collection.
	Device() pcmdev.Array
}

// Params configures scheme construction.
type Params struct {
	// Lines is the number of cache lines in the simulated array.
	Lines int
	// LineBytes is the cache line size; 0 means 64.
	LineBytes int
	// Key is the 16-byte AES-128 key for encrypted schemes. Nil selects
	// a fixed development key (the simulator measures write costs, not
	// secrecy, but examples may supply a real key).
	Key []byte
	// EpochInterval is the DEUCE epoch length in writes (power of two).
	// 0 means 32, the paper's default (§4.5).
	EpochInterval int
	// WordBytes is the DEUCE/FNW tracking granularity. 0 means 2, the
	// paper's default (§4.4).
	WordBytes int
	// CounterBits is the per-line counter width. 0 means 28 (Table 1).
	CounterBits uint
	// TrackPerLineWear forwards to pcmdev.Config.
	TrackPerLineWear bool
	// HotCapacity is the i-NVMM hot-set size in lines (0 means Lines/8).
	// Writes to hot lines cost plain DCW; displacing a line from the hot
	// set costs a full re-encryption, so an undersized hot set pushes
	// i-NVMM's write cost toward the encrypted baseline.
	HotCapacity int
	// Trace, when non-nil, receives one obs.WriteEvent per line write
	// (sampling happens inside the trace). The trace shares the scheme's
	// single-goroutine contract; with a nil Trace the write path pays one
	// predictable branch.
	Trace *obs.Trace
	// MakeArray, when non-nil, builds the storage the scheme writes to.
	// It receives the geometry the scheme needs (lines, line size,
	// metadata bits) and may return a remapped pcmdev.Device — this is
	// how the wear levelers of internal/wear are put under a scheme — or
	// a device observed by internal/integrity's guard. Nil means a bare
	// pcmdev.Device.
	MakeArray func(pcmdev.Config) (pcmdev.Array, error)
	// MakeBackend, when non-nil, supplies page storage for the scheme's
	// two durable regions: it is called once with region "array" (the
	// cell array, one page per line of pcmdev.Config.PageBytes bytes)
	// and once with region "counters" (the encryption counters,
	// ctrstore.PageBytes pages). This is how file and sharded-directory
	// backends (internal/backend) are threaded under a scheme; nil means
	// both regions live in RAM. Mutually exclusive with MakeArray, which
	// builds the array on storage of its own choosing.
	MakeBackend func(region string, pages, pageSize int) (backend.Backend, error)
}

// Region names passed to Params.MakeBackend.
const (
	// RegionArray is the cell array: Lines pages of Config.PageBytes.
	RegionArray = "array"
	// RegionCounters is the encryption-counter store:
	// ctrstore.BackendPages(n) pages of ctrstore.PageBytes.
	RegionCounters = "counters"
)

// DirBackendMaker returns a MakeBackend storing each region under dir:
// counters always land in one mmap-backed file (dir/counters.pg), and the
// cell array either in dir/array.pg or — when shardArray is set — sharded
// over dir/array/shard-*.pg for arrays larger than one file comfortably
// holds. shards is the shard-file count (0 means backend.DefaultDirShards);
// an existing directory's manifest overrides it. Each region is journaled
// (backend.Journaled) in dir/<region>.jnl, so a Sync flushes the changed
// bytes to one log instead of every page a write touched. Both the public
// deuce package and deucesim's -backend flag build their makers through
// this one function, so every entry point lays files out identically.
func DirBackendMaker(dir string, shardArray bool, shards int) func(region string, pages, pageSize int) (backend.Backend, error) {
	return func(region string, pages, pageSize int) (backend.Backend, error) {
		var data backend.Backend
		var err error
		if shardArray && region == RegionArray {
			data, err = backend.OpenDir(filepath.Join(dir, region), pages, pageSize, shards)
		} else {
			data, err = backend.OpenFile(filepath.Join(dir, region+".pg"), pages, pageSize)
		}
		if err != nil {
			return nil, err
		}
		return backend.OpenJournal(filepath.Join(dir, region+".jnl"), data)
	}
}

func (p *Params) setDefaults() {
	if p.LineBytes == 0 {
		p.LineBytes = pcmdev.DefaultLineBytes
	}
	if p.Key == nil {
		p.Key = []byte("deuce-asplos2015")
	}
	if p.EpochInterval == 0 {
		p.EpochInterval = 32
	}
	if p.WordBytes == 0 {
		p.WordBytes = 2
	}
	if p.CounterBits == 0 {
		p.CounterBits = ctrstore.DefaultBits
	}
}

// Canonical returns the params with every defaultable field resolved to
// its effective value. Two Params that construct identical schemes — e.g.
// the zero value and an explicit {WordBytes: 2, EpochInterval: 32} — have
// equal canonical forms, which is what lets cache keys built from them
// (internal/exp) recognize the equivalence.
func (p Params) Canonical() Params {
	q := p
	q.setDefaults()
	return q
}

func (p *Params) validate() error {
	if p.Lines <= 0 {
		return fmt.Errorf("core: Lines must be positive, got %d", p.Lines)
	}
	if p.EpochInterval < 1 || p.EpochInterval&(p.EpochInterval-1) != 0 {
		return fmt.Errorf("core: EpochInterval must be a power of two, got %d", p.EpochInterval)
	}
	switch p.WordBytes {
	case 1, 2, 4, 8:
	default:
		return fmt.Errorf("core: WordBytes must be 1, 2, 4 or 8, got %d", p.WordBytes)
	}
	// A pad's 8-bit block index caps a line at 256 AES blocks; past that
	// two blocks of one line would share a pad.
	if p.LineBytes%otp.BlockSize != 0 || p.LineBytes < otp.BlockSize || p.LineBytes > otp.MaxPadBlocks*otp.BlockSize {
		return fmt.Errorf("core: LineBytes must be a multiple of %d between %d and %d, got %d",
			otp.BlockSize, otp.BlockSize, otp.MaxPadBlocks*otp.BlockSize, p.LineBytes)
	}
	return nil
}

// base carries the plumbing shared by every scheme, and the parts of the
// Scheme and Persistent contracts every scheme states the same way: Name,
// Device, SaveState and LoadState.
type base struct {
	p    Params
	name string // display name, also the snapshot's scheme field
	dev  pcmdev.Array
	gen  *otp.Generator
	ctrs *ctrstore.Store

	inited *bitutil.Vector // lazily-initialized lines

	// install is the scheme's Install, stored once by its constructor,
	// so initLine can place a line's first image without a method value
	// built per call.
	install func(line uint64, plaintext []byte)

	// scr holds the scheme-owned write-path scratch buffers. A Scheme is
	// single-goroutine (like its Generator and Device), so one set per
	// scheme suffices; see DESIGN.md "Performance" for the ownership rules.
	scr scratch
}

// scratch is the set of reusable buffers a scheme's Write path fills on
// every call instead of allocating. Contents are only valid within one
// Write; nothing here may be handed to callers or retained across calls.
type scratch struct {
	oldData  []byte // stored cells image (LineBytes)
	newData  []byte // image to be written (LineBytes)
	oldPlain []byte // decrypted pre-write plaintext (LineBytes)
	oldMeta  []byte // stored metadata image
	newMeta  []byte // metadata image to be written
	pads     []byte // padL ‖ padT, one otp.PadPairInto target (2*LineBytes)
	padL     []byte // leading-counter pad, pads[:LineBytes]
	padT     []byte // trailing-counter pad, pads[LineBytes:]
}

// setPads installs pads (2*LineBytes) as the pad scratch and its two views.
func (s *scratch) setPads(pads []byte) {
	n := len(pads) / 2
	s.pads, s.padL, s.padT = pads, pads[:n:n], pads[n:]
}

func newBase(p Params, name string, metaBits int, blockCtrs bool) (*base, error) {
	p.setDefaults()
	if err := p.validate(); err != nil {
		return nil, err
	}
	devCfg := pcmdev.Config{
		Lines:            p.Lines,
		LineBytes:        p.LineBytes,
		MetaBits:         metaBits,
		TrackPerLineWear: p.TrackPerLineWear,
	}
	if p.MakeArray != nil && p.MakeBackend != nil {
		return nil, fmt.Errorf("core: MakeArray and MakeBackend are mutually exclusive (MakeArray chooses the array's storage)")
	}
	var dev pcmdev.Array
	var err error
	switch {
	case p.MakeArray != nil:
		dev, err = p.MakeArray(devCfg)
	case p.MakeBackend != nil:
		var be backend.Backend
		be, err = p.MakeBackend(RegionArray, devCfg.Lines, devCfg.PageBytes())
		if err == nil {
			dev, err = pcmdev.NewOnBackend(devCfg, be)
		}
	default:
		dev, err = pcmdev.New(devCfg)
	}
	if err != nil {
		return nil, err
	}
	gen, err := otp.NewGenerator(p.Key)
	if err != nil {
		return nil, err
	}
	nCtrs := p.Lines
	if blockCtrs {
		nCtrs = p.Lines * (p.LineBytes / otp.BlockSize)
	}
	var ctrs *ctrstore.Store
	if p.MakeBackend != nil {
		var cbe backend.Backend
		cbe, err = p.MakeBackend(RegionCounters, ctrstore.BackendPages(nCtrs), ctrstore.PageBytes)
		if err == nil {
			ctrs, err = ctrstore.NewOnBackend(cbe, nCtrs, p.CounterBits)
		}
	} else {
		ctrs, err = ctrstore.New(nCtrs, p.CounterBits)
	}
	if err != nil {
		return nil, err
	}
	mb := metaBytes(metaBits)
	b := &base{p: p, name: name, dev: dev, gen: gen, ctrs: ctrs, inited: bitutil.NewVector(p.Lines)}
	b.scr = scratch{
		oldData:  make([]byte, p.LineBytes),
		newData:  make([]byte, p.LineBytes),
		oldPlain: make([]byte, p.LineBytes),
	}
	b.scr.setPads(make([]byte, 2*p.LineBytes))
	if mb > 0 {
		b.scr.oldMeta = make([]byte, mb)
		b.scr.newMeta = make([]byte, mb)
	}
	return b, nil
}

// Name implements Scheme: the scheme's display name as used in the
// paper's figures.
func (b *base) Name() string { return b.name }

// Device implements Scheme.
func (b *base) Device() pcmdev.Array { return b.dev }

// observe forwards one completed write to the configured event trace and
// hands the result back, so scheme Write methods wrap their final device
// write in a single expression. epochReset marks a DEUCE-family full
// re-encryption. With tracing off this is one nil check; with it on,
// Trace.Record stores into a pre-sized ring — the write path allocates in
// neither case.
func (b *base) observe(line uint64, res pcmdev.WriteResult, epochReset bool) pcmdev.WriteResult {
	if t := b.p.Trace; t != nil {
		t.Record(obs.WriteEvent{
			Scheme:     b.name,
			Line:       line,
			DataFlips:  res.DataFlips,
			MetaFlips:  res.MetaFlips,
			Slots:      res.Slots,
			EpochReset: epochReset,
		})
	}
	return res
}

// touched reports whether a line has been installed.
func (b *base) touched(line uint64) bool { return b.inited.Get(int(line)) }

// initLine installs the all-zero line on first touch (the lazy initial
// placement described in the package comment).
func (b *base) initLine(line uint64) {
	if !b.touched(line) {
		b.install(line, make([]byte, b.p.LineBytes))
	}
}

// markInstalled flags a line as placed, enforcing the Install contract.
func (b *base) markInstalled(line uint64) {
	if b.inited.Get(int(line)) {
		panic(fmt.Sprintf("core: Install on already-touched line %d", line))
	}
	b.inited.Set(int(line), true)
}

func (b *base) checkPlain(plaintext []byte) {
	if len(plaintext) != b.p.LineBytes {
		panic(fmt.Sprintf("core: plaintext of %d bytes for %d-byte line", len(plaintext), b.p.LineBytes))
	}
}

// checkDst is checkPlain for a ReadInto destination.
func (b *base) checkDst(dst []byte) {
	if len(dst) != b.p.LineBytes {
		panic(fmt.Sprintf("core: ReadInto buffer of %d bytes for %d-byte line", len(dst), b.p.LineBytes))
	}
}

// words returns the number of tracking words per line.
func (b *base) words() int { return b.p.LineBytes / b.p.WordBytes }

// metaBytes returns ceil(n/8) for building metadata images.
func metaBytes(bits int) int { return (bits + 7) / 8 }

// fieldPair is the metadata layout DEUCE+FNW and SECRET share: the device
// holds exactly 2*words cells, the modified bits in [0, words) and the
// scheme's second field (flip bits, zero flags) in [words, 2*words). The
// schemes compute on each field as its own byte slice. When words is a
// multiple of 8, as at every geometry the figures use, both fields start
// on a byte boundary and are views of the image; otherwise split unpacks
// them into scratch and join packs them back.
type fieldPair struct{ words, n int } // n = metaBytes(words)

func newFieldPair(words int) fieldPair { return fieldPair{words, metaBytes(words)} }

// scratch returns a buffer split can unpack both fields into.
func (f fieldPair) scratch() []byte { return make([]byte, 2*f.n) }

// split returns the two fields of the metadata image img, as views of img
// or, when they are not byte-aligned, as views of scratch holding a copy.
func (f fieldPair) split(img, scratch []byte) (a, b []byte) {
	if f.words%8 == 0 {
		return img[:f.n:f.n], img[f.n : 2*f.n]
	}
	a, b = scratch[:f.n:f.n], scratch[f.n:2*f.n]
	clear(scratch[:2*f.n])
	for i := 0; i < f.words; i++ {
		bitutil.SetBit(a, i, bitutil.GetBit(img, i))
		bitutil.SetBit(b, i, bitutil.GetBit(img, f.words+i))
	}
	return a, b
}

// join stores fields a and b, as returned by split(img, ...), into img.
// Byte-aligned fields are views of img already.
func (f fieldPair) join(img, a, b []byte) {
	if f.words%8 == 0 {
		return
	}
	for i := 0; i < f.words; i++ {
		bitutil.SetBit(img, i, bitutil.GetBit(a, i))
		bitutil.SetBit(img, f.words+i, bitutil.GetBit(b, i))
	}
}
