package wear

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"

	"deuce/internal/bitutil"
	"deuce/internal/pcmdev"
)

// This file keeps the rotated-storage wear leveler as the twin the
// remapped device is diffed against: a pcmdev.Array over a bare device
// that stores each line rotated by its HWL amount, so every write, read
// and step copy goes through a whole-image shifter. Start-Gap and Security
// Refresh are restated over it with their original step copies.

// twin implements pcmdev.Array for every vertical wear leveler: its
// policy supplies the remap, and the memory's shifter (§5.3: "the memory
// is equipped with shifters") stores the image of each logical line
// rotated left by the line's HWL amount. A line's rotation only changes at
// the moment a step copies it anyway, so rotation costs no extra write.
type twin struct {
	inner *pcmdev.Device
	cfg   StartGapConfig
	pol   policy
	n     int // logical lines

	writesSinceStep int

	totalBits int // data+meta bits per line, the rotation modulus
	dataWords int // LineBytes/8: metadata cells start on a word boundary
	metaBytes int
	// img and rot are the shifter's word images of one line, LSB-first
	// like bitutil.GetBit: the data cells, then the metadata cells.
	img, rot []uint64
	// data and meta hold one stored line image: a write's rotated image,
	// or a step's copy (nil meta when the array has no metadata cells,
	// whatever the caller passed).
	data, meta []byte
	// slots stages a Write's SlotFlips across a counted step, whose own
	// device write reuses the scratch the result aliases.
	slots []int
}

// newTwin builds the twin for n logical lines over inner.
func newTwin(inner *pcmdev.Device, n int, cfg StartGapConfig, pol policy) twin {
	// Derive the rotation modulus from the device's resolved geometry so
	// configuration defaults are applied exactly once.
	dc := inner.Config()
	l := twin{
		inner:     inner,
		cfg:       cfg,
		pol:       pol,
		n:         n,
		totalBits: dc.TotalBitsPerLine(),
		dataWords: dc.LineBytes / 8,
		metaBytes: (dc.MetaBits + 7) / 8,
		data:      make([]byte, dc.LineBytes),
		slots:     make([]int, 0, dc.LineBits()/pcmdev.SlotBits),
	}
	words := (l.totalBits + 63) / 64
	l.img, l.rot = make([]uint64, words), make([]uint64, words)
	if dc.MetaBits > 0 {
		l.meta = make([]byte, l.metaBytes)
	}
	return l
}

// rotation returns the current HWL rotation amount for a logical line.
func (l *twin) rotation(line uint64) int {
	switch l.cfg.Mode {
	case HWL:
		return int(l.pol.moves(line) % uint64(l.totalBits))
	case HWLHashed:
		return int(mix64(l.pol.moves(line), line) % uint64(l.totalBits))
	}
	return 0
}

// Write implements pcmdev.Array. Every Psi-th write additionally takes one
// policy step, which is the moment a line's rotation amount advances.
func (l *twin) Write(line uint64, data, meta []byte) pcmdev.WriteResult {
	l.checkLine(line)
	l.shift(l.data, l.meta, data, meta, l.rotation(line))
	res := l.inner.Write(l.pol.physical(line), l.data, l.meta)
	if l.writesSinceStep++; l.writesSinceStep >= l.cfg.Psi {
		l.writesSinceStep = 0
		if !l.cfg.FreeGapMoves {
			l.slots = append(l.slots[:0], res.SlotFlips...)
			res.SlotFlips = l.slots
		}
		l.pol.step()
	}
	return res
}

// WriteTracked implements pcmdev.Array as a reference statement of the
// tracked-word rule over the twin's own PeekInto and Write: the stored
// image is de-rotated, stepped lane by lane with pcmdev.Lanes and written
// back through the shifter. Metadata padding bits are written as zero.
func (l *twin) WriteTracked(line uint64, pt, padL, padT []byte, wordBytes int, reset bool) pcmdev.WriteResult {
	data, meta, mod := make([]byte, len(l.data)), make([]byte, l.metaBytes), make([]byte, l.metaBytes)
	l.PeekInto(line, data, meta)
	lt, le := pcmdev.LanesFor(wordBytes), binary.LittleEndian
	for k, off := 0, 0; off < len(pt); k, off = k+1, off+8 {
		ct, g := le.Uint64(pt[off:])^le.Uint64(padL[off:]), uint8(0)
		if !reset {
			ct, g = lt.Step(lt.Group(meta, k), le.Uint64(data[off:]), le.Uint64(pt[off:]), le.Uint64(padL[off:]), le.Uint64(padT[off:]))
		}
		le.PutUint64(data[off:], ct)
		lt.OrGroup(mod, k, g)
	}
	return l.Write(line, data, mod)
}

// Sync implements pcmdev.Array.
func (l *twin) Sync() error { return l.inner.Sync() }

// Close implements pcmdev.Array.
func (l *twin) Close() error { return l.inner.Close() }

// Load implements pcmdev.Array.
func (l *twin) Load(line uint64, data, meta []byte) {
	l.checkLine(line)
	l.shift(l.data, l.meta, data, meta, l.rotation(line))
	l.inner.Load(l.pol.physical(line), l.data, l.meta)
}

// Peek implements pcmdev.Array.
func (l *twin) Peek(line uint64) (data, meta []byte) {
	data, meta = make([]byte, len(l.data)), make([]byte, l.metaBytes)
	l.PeekInto(line, data, meta)
	return data, meta
}

// PeekInto implements pcmdev.Array: the stored image, de-rotated in place.
func (l *twin) PeekInto(line uint64, data, meta []byte) {
	l.checkLine(line)
	l.inner.PeekInto(l.pol.physical(line), data, meta)
	l.shift(data, meta, data, meta, -l.rotation(line))
}

// ReadInto implements pcmdev.Array: the inner device's read, counted
// there, then de-rotated in place.
func (l *twin) ReadInto(line uint64, data, meta []byte) {
	l.checkLine(line)
	l.inner.ReadInto(l.pol.physical(line), data, meta)
	l.shift(data, meta, data, meta, -l.rotation(line))
}

// store writes a logical line's plaintext image, which the call rotates in
// place, at the line's current mapping: a step's copy of a line whose
// registers have already advanced.
func (l *twin) store(line uint64, data, meta []byte) {
	l.shift(data, meta, data, meta, l.rotation(line))
	l.put(l.pol.physical(line), data, meta)
}

// put commits a step's copy to a physical line, with or without cost
// accounting per FreeGapMoves.
func (l *twin) put(phys uint64, data, meta []byte) {
	if l.cfg.FreeGapMoves {
		l.inner.Load(phys, data, meta)
		return
	}
	l.inner.Write(phys, data, meta)
}

// shift is the memory's shifter: it stores the line image (data, meta),
// rotated left by k bits as one string of LineBits+MetaBits cells, into
// (dd, dm), which may alias (data, meta). A zero k copies verbatim; any
// other k leaves the padding bits past MetaBits zero. A wrong-size image
// panics as it does on the bare device, whatever the rotation.
func (l *twin) shift(dd, dm, data, meta []byte, k int) {
	if len(data) != len(l.data) || len(meta) < l.metaBytes {
		panic(fmt.Sprintf("wear: line image of %d+%d bytes, want %d+%d", len(data), len(meta), len(l.data), l.metaBytes))
	}
	if k == 0 {
		copy(dd, data)
		copy(dm, meta)
		return
	}
	img := l.img
	for i := range l.dataWords {
		img[i] = binary.LittleEndian.Uint64(data[8*i:])
	}
	m := img[l.dataWords:]
	clear(m)
	for i, b := range meta[:l.metaBytes] {
		m[i/8] |= uint64(b) << (8 * (i % 8))
	}
	bitutil.RotateWords(l.rot, img, l.totalBits, k)
	for i := range l.dataWords {
		binary.LittleEndian.PutUint64(dd[8*i:], l.rot[i])
	}
	for i := range dm[:l.metaBytes] {
		dm[i] = byte(l.rot[l.dataWords+i/8] >> (8 * (i % 8)))
	}
}

// Config implements pcmdev.Array, reporting the logical geometry.
func (l *twin) Config() pcmdev.Config {
	cfg := l.inner.Config()
	cfg.Lines = l.n
	return cfg
}

// Stats implements pcmdev.Array. Counted step copies are included: they
// are real cell programs and part of the twin's (small) overhead.
func (l *twin) Stats() pcmdev.Stats { return l.inner.Stats() }

// ResetStats implements pcmdev.Array.
func (l *twin) ResetStats() { l.inner.ResetStats() }

// PositionWrites implements pcmdev.Array.
func (l *twin) PositionWrites() []uint64 { return l.inner.PositionWrites() }

// LineWrites implements pcmdev.Array: the physical per-line distribution,
// i.e. after remapping — the profile vertical wear leveling flattens.
func (l *twin) LineWrites() []uint64 { return l.inner.LineWrites() }

func (l *twin) checkLine(line uint64) {
	if line >= uint64(l.n) {
		panic(fmt.Sprintf("wear: logical line %d out of range [0,%d)", line, l.n))
	}
}

// twinStartGap is StartGap over the twin: its registers, mapping and gap
// move, with the move copying the rotated image through the shifter.
type twinStartGap struct {
	twin

	start    int    // Start register modulo n, used for address mapping
	rounds   uint64 // total Start increments ever, used for HWL rotation
	gap      int    // physical location of the gap, in [0, n]
	gapMoves uint64
}

func newTwinStartGap(devCfg pcmdev.Config, cfg StartGapConfig) (*twinStartGap, error) {
	if err := cfg.check(); err != nil {
		return nil, err
	}
	if devCfg.Lines < 2 {
		return nil, fmt.Errorf("wear: need at least 2 logical lines, got %d", devCfg.Lines)
	}
	phys := devCfg
	phys.Lines = devCfg.Lines + 1
	inner, err := pcmdev.New(phys)
	if err != nil {
		return nil, err
	}
	s := &twinStartGap{gap: devCfg.Lines} // gap starts past the last logical line
	s.twin = newTwin(inner, devCfg.Lines, cfg, s)
	return s, nil
}

func (s *twinStartGap) physical(line uint64) uint64 {
	pa := (int(line) + s.start) % s.n
	if pa >= s.gap {
		pa++
	}
	return uint64(pa)
}

func (s *twinStartGap) moves(line uint64) uint64 {
	if s.physical(line) > uint64(s.gap) {
		return s.rounds + 1
	}
	return s.rounds
}

func (s *twinStartGap) step() {
	s.gapMoves++
	from := uint64((s.gap + s.n) % (s.n + 1))            // physical gap-1, circularly
	moved := uint64((s.gap - 1 - s.start + 2*s.n) % s.n) // the logical line stored there
	oldRot := s.rotation(moved)                          // before the registers advance
	s.inner.PeekInto(from, s.data, s.meta)
	if s.gap == 0 {
		s.gap, s.start, s.rounds = s.n, (s.start+1)%s.n, s.rounds+1
	} else {
		s.gap--
	}
	s.shift(s.data, s.meta, s.data, s.meta, s.rotation(moved)-oldRot)
	s.put(s.physical(moved), s.data, s.meta)
}

// twinSecurityRefresh is SecurityRefresh over the twin: its keys, mapping
// and pair swap, with the swap copying both rotated images.
type twinSecurityRefresh struct {
	twin
	rng *rand.Rand

	kc uint64 // current key
	kn uint64 // next key
	p  uint64 // refresh pointer over canonical pair indices

	rounds uint64 // completed sweeps
	swaps  uint64

	// pairData and pairMeta hold the partner line's image while a swap
	// moves both lines of a pair.
	pairData, pairMeta []byte
}

func newTwinSecurityRefresh(devCfg pcmdev.Config, cfg StartGapConfig, seed int64) (*twinSecurityRefresh, error) {
	if err := cfg.check(); err != nil {
		return nil, err
	}
	if devCfg.Lines < 2 || devCfg.Lines&(devCfg.Lines-1) != 0 {
		return nil, fmt.Errorf("wear: SecurityRefresh needs a power-of-two line count, got %d", devCfg.Lines)
	}
	inner, err := pcmdev.New(devCfg)
	if err != nil {
		return nil, err
	}
	s := &twinSecurityRefresh{
		rng: rand.New(rand.NewSource(seed)),
		kc:  0, // identity mapping at boot: fresh array reads back zeroes
	}
	s.twin = newTwin(inner, devCfg.Lines, cfg, s)
	s.pairData, s.pairMeta = bytes.Clone(s.data), bytes.Clone(s.meta)
	s.kn = s.freshKey()
	return s, nil
}

func (s *twinSecurityRefresh) freshKey() uint64 {
	for {
		k := uint64(s.rng.Intn(s.n))
		if k != s.kc {
			return k
		}
	}
}

func (s *twinSecurityRefresh) processed(line uint64) bool {
	d := s.kc ^ s.kn
	canon := line
	if other := line ^ d; other < canon {
		canon = other
	}
	return canon < s.p
}

func (s *twinSecurityRefresh) physical(line uint64) uint64 {
	if s.processed(line) {
		return line ^ s.kn
	}
	return line ^ s.kc
}

func (s *twinSecurityRefresh) moves(line uint64) uint64 {
	if s.processed(line) {
		return s.rounds + 1
	}
	return s.rounds
}

func (s *twinSecurityRefresh) step() {
	d := s.kc ^ s.kn
	// Advance past indices that are not canonical (their pair partner is
	// smaller and was processed when the pointer passed it).
	for s.p < uint64(s.n) && (s.p^d) < s.p {
		s.p++
	}
	if s.p >= uint64(s.n) {
		s.completeRound()
		return
	}
	a := s.p // canonical line of the pair; partner is a^d
	b := a ^ d

	// Pre-swap images and rotations.
	s.PeekInto(a, s.data, s.meta)
	s.PeekInto(b, s.pairData, s.pairMeta)
	s.p++ // the pair is now processed: mappings and rotations advance
	s.swaps++

	s.store(a, s.data, s.meta)
	s.store(b, s.pairData, s.pairMeta)

	if s.p >= uint64(s.n) {
		s.completeRound()
	}
}

func (s *twinSecurityRefresh) completeRound() {
	s.kc = s.kn
	s.kn = s.freshKey()
	s.p = 0
	s.rounds++
}

// NewTwin builds the rotated-storage twin of the memory NewStartGap, or
// with sr NewSecurityRefresh at seed 1, builds for the geometry in devCfg.
func NewTwin(devCfg pcmdev.Config, cfg StartGapConfig, sr bool) (pcmdev.Array, error) {
	if sr {
		return newTwinSecurityRefresh(devCfg, cfg, 1)
	}
	return newTwinStartGap(devCfg, cfg)
}
