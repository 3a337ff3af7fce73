// Package wear implements the durability machinery of the paper's §5: one
// wear leveler (leveler.go) with two vertical wear-leveling policies,
// Start-Gap (Qureshi et al., MICRO 2009 — paper ref [20]) and Security
// Refresh (Seong, Woo & Lee, ISCA 2010), under the paper's Horizontal Wear
// Leveling extension that rotates each line's bits by the number of times
// the policy has moved it (plainly, or hashed per line as in footnote 2),
// and the endurance-limited lifetime model behind Figures 12 and 14.
//
// Concurrency: the wear-leveling remapper is unlocked single-owner state
// on the write path, advanced inline by the goroutine that owns the
// scheme instance, like everything else in the controller model.
package wear

import (
	"encoding/binary"
	"fmt"

	"deuce/internal/bitutil"
	"deuce/internal/pcmdev"
)

// DefaultPsi is the gap-move interval in writes (§5.2 "every so often, say
// 100 writes").
const DefaultPsi = 100

// Mode selects the horizontal wear-leveling policy of a wear leveler.
type Mode int

const (
	// VWLOnly remaps lines with no bit rotation.
	VWLOnly Mode = iota
	// HWL additionally rotates each line by Start' % bitsPerLine
	// (§5.3), where Start' is Start+1 for lines the gap has already
	// passed this round.
	HWL
	// HWLHashed rotates by Hash(Start', lineAddr) % bitsPerLine
	// (footnote 2), which breaks the deterministic pattern an adversary
	// could track.
	HWLHashed
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case VWLOnly:
		return "VWL"
	case HWL:
		return "HWL"
	case HWLHashed:
		return "HWL-hashed"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// StartGapConfig configures a wear leveler: a StartGap array, or a
// SecurityRefresh array with the pair swap in place of the gap move.
type StartGapConfig struct {
	// Psi is the number of writes between gap moves; 0 means DefaultPsi.
	Psi int
	// Mode selects VWL-only or one of the HWL rotations.
	Mode Mode
	// FreeGapMoves excludes gap-move copies from wear and flip
	// accounting. At the paper's scale (psi=100, billions of writes)
	// gap moves contribute <1% of cell programs; scaled-down simulations
	// need small psi values to accumulate realistic Start-register
	// counts, and without this flag the gap copies would dominate the
	// wear profile and mask the effect being measured.
	FreeGapMoves bool
}

// policy is one vertical wear-leveling algorithm reduced to its registers:
// where a logical line lives, how many times the leveler has moved it, and
// the step that advances the registers every Psi writes. The leveler
// implements everything else once.
type policy interface {
	// physical maps a logical line to its current physical line.
	physical(line uint64) uint64
	// moves counts the leveler's own rewrites of a line so far; the HWL
	// rotation amount derives from it (§5.3).
	moves(line uint64) uint64
	// step advances the registers by one move, relocating the lines it
	// remaps through the leveler's copy primitives.
	step()
}

// leveler implements pcmdev.Array for every vertical wear leveler: its
// policy supplies the remap, and the memory's shifter (§5.3: "the memory
// is equipped with shifters") stores the image of each logical line
// rotated left by the line's HWL amount. A line's rotation only changes at
// the moment a step copies it anyway, so rotation costs no extra write.
type leveler struct {
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

// check applies the Psi default and validates the configuration.
func (c *StartGapConfig) check() error {
	if c.Psi == 0 {
		c.Psi = DefaultPsi
	}
	if c.Psi < 1 {
		return fmt.Errorf("wear: Psi must be positive, got %d", c.Psi)
	}
	switch c.Mode {
	case VWLOnly, HWL, HWLHashed:
		return nil
	}
	return fmt.Errorf("wear: unknown mode %d", int(c.Mode))
}

// newLeveler builds the leveler for n logical lines over inner.
func newLeveler(inner *pcmdev.Device, n int, cfg StartGapConfig, pol policy) leveler {
	// Derive the rotation modulus from the device's resolved geometry so
	// configuration defaults are applied exactly once.
	dc := inner.Config()
	l := leveler{
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
func (l *leveler) rotation(line uint64) int {
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
func (l *leveler) Write(line uint64, data, meta []byte) pcmdev.WriteResult {
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

// Load implements pcmdev.Array.
func (l *leveler) Load(line uint64, data, meta []byte) {
	l.checkLine(line)
	l.shift(l.data, l.meta, data, meta, l.rotation(line))
	l.inner.Load(l.pol.physical(line), l.data, l.meta)
}

// Peek implements pcmdev.Array.
func (l *leveler) Peek(line uint64) (data, meta []byte) {
	data, meta = make([]byte, len(l.data)), make([]byte, l.metaBytes)
	l.PeekInto(line, data, meta)
	return data, meta
}

// PeekInto implements pcmdev.Array: the stored image, de-rotated in place.
func (l *leveler) PeekInto(line uint64, data, meta []byte) {
	l.checkLine(line)
	l.inner.PeekInto(l.pol.physical(line), data, meta)
	l.shift(data, meta, data, meta, -l.rotation(line))
}

// ReadInto implements pcmdev.Array: the inner device's read, counted
// there, then de-rotated in place.
func (l *leveler) ReadInto(line uint64, data, meta []byte) {
	l.checkLine(line)
	l.inner.ReadInto(l.pol.physical(line), data, meta)
	l.shift(data, meta, data, meta, -l.rotation(line))
}

// store writes a logical line's plaintext image, which the call rotates in
// place, at the line's current mapping: a step's copy of a line whose
// registers have already advanced.
func (l *leveler) store(line uint64, data, meta []byte) {
	l.shift(data, meta, data, meta, l.rotation(line))
	l.put(l.pol.physical(line), data, meta)
}

// put commits a step's copy to a physical line, with or without cost
// accounting per FreeGapMoves.
func (l *leveler) put(phys uint64, data, meta []byte) {
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
func (l *leveler) shift(dd, dm, data, meta []byte, k int) {
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
func (l *leveler) Config() pcmdev.Config {
	cfg := l.inner.Config()
	cfg.Lines = l.n
	return cfg
}

// Stats implements pcmdev.Array. Counted step copies are included: they
// are real cell programs and part of the leveler's (small) overhead.
func (l *leveler) Stats() pcmdev.Stats { return l.inner.Stats() }

// ResetStats implements pcmdev.Array.
func (l *leveler) ResetStats() { l.inner.ResetStats() }

// PositionWrites implements pcmdev.Array.
func (l *leveler) PositionWrites() []uint64 { return l.inner.PositionWrites() }

// LineWrites implements pcmdev.Array: the physical per-line distribution,
// i.e. after remapping — the profile vertical wear leveling flattens.
func (l *leveler) LineWrites() []uint64 { return l.inner.LineWrites() }

// InnerDevice exposes the physical array for wear analysis (per-physical-
// line write distributions live below the remapping layer).
func (l *leveler) InnerDevice() *pcmdev.Device { return l.inner }

func (l *leveler) checkLine(line uint64) {
	if line >= uint64(l.n) {
		panic(fmt.Sprintf("wear: logical line %d out of range [0,%d)", line, l.n))
	}
}

// mix64 is a splitmix64-style mixer used for the hashed HWL variant; it
// only needs to decorrelate rotation amounts across lines, not be
// cryptographic.
func mix64(a, b uint64) uint64 {
	z := a*0x9e3779b97f4a7c15 + b + 0x7f4a7c159e3779b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
