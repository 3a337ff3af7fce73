// Package wear implements the durability machinery of the paper's §5:
// Start-Gap vertical wear leveling (Qureshi et al., MICRO 2009 — paper ref
// [20]), the paper's Horizontal Wear Leveling extension that rotates each
// line's bits by an algebraic function of the Start register, the hashed
// per-line rotation variant of footnote 2, and the endurance-limited
// lifetime model behind Figures 12 and 14.
//
// Concurrency: the wear-leveling remapper is unlocked single-owner state
// on the write path, advanced inline by the goroutine that owns the
// scheme instance, like everything else in the controller model.
package wear

import (
	"fmt"

	"deuce/internal/bitutil"
	"deuce/internal/pcmdev"
)

// DefaultPsi is the gap-move interval in writes (§5.2 "every so often, say
// 100 writes").
const DefaultPsi = 100

// Mode selects the horizontal wear-leveling policy of a StartGap array.
type Mode int

const (
	// VWLOnly performs Start-Gap line remapping with no bit rotation.
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

// StartGapConfig configures a StartGap array.
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

// StartGap wraps a pcmdev.Device with Start-Gap remapping and optional
// Horizontal Wear Leveling. It exposes N logical lines over N+1 physical
// lines (the extra one is the gap) and implements pcmdev.Array, so schemes
// in internal/core can be constructed directly on top of it.
//
// The stored image of logical line L is always rotated left by rot(L) bits,
// where rot(L) is the line's current HWL rotation amount. The invariant is
// maintained without dedicated rotation writes: a line's rotation amount
// only changes at the moment the gap move copies it anyway (§5.3).
type StartGap struct {
	inner *pcmdev.Device
	cfg   StartGapConfig

	n      int    // logical lines
	start  int    // Start register modulo n, used for address mapping
	rounds uint64 // total Start increments ever, used for HWL rotation
	gap    int    // physical location of the gap, in [0, n]

	writesSinceMove int
	gapMoves        uint64
	totalBits       int // data+meta bits per line, the rotation modulus
}

// NewStartGap builds a StartGap array for the logical geometry in devCfg.
// The inner device is created with one extra physical line.
func NewStartGap(devCfg pcmdev.Config, cfg StartGapConfig) (*StartGap, error) {
	if cfg.Psi == 0 {
		cfg.Psi = DefaultPsi
	}
	if cfg.Psi < 1 {
		return nil, fmt.Errorf("wear: Psi must be positive, got %d", cfg.Psi)
	}
	switch cfg.Mode {
	case VWLOnly, HWL, HWLHashed:
	default:
		return nil, fmt.Errorf("wear: unknown mode %d", int(cfg.Mode))
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
	return &StartGap{
		inner: inner,
		cfg:   cfg,
		n:     devCfg.Lines,
		gap:   devCfg.Lines, // gap starts past the last logical line
		// Derive the rotation modulus from the device's resolved
		// geometry so configuration defaults are applied exactly once.
		totalBits: inner.Config().TotalBitsPerLine(),
	}, nil
}

// MustNewStartGap is NewStartGap for configurations known to be valid.
func MustNewStartGap(devCfg pcmdev.Config, cfg StartGapConfig) *StartGap {
	s, err := NewStartGap(devCfg, cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// physical maps a logical line to its current physical location
// (paper §5.2: PA = (LA + Start) mod N, incremented if the gap sits at or
// below it).
func (s *StartGap) physical(line uint64) uint64 {
	pa := (int(line) + s.start) % s.n
	if pa >= s.gap {
		pa++
	}
	return uint64(pa)
}

// startPrime returns Start', the per-line effective start count: lines the
// gap has already passed this round have been moved (and rotated) one extra
// time (§5.3). Unlike the mapping register, this value never wraps at n —
// the paper's rotation amount is the total number of rotations the line has
// undergone, modulo the bits in the line.
func (s *StartGap) startPrime(line uint64) uint64 {
	pa := (int(line) + s.start) % s.n
	if pa >= s.gap {
		return s.rounds + 1
	}
	return s.rounds
}

// rotation returns the current HWL rotation amount for a logical line.
func (s *StartGap) rotation(line uint64) int {
	switch s.cfg.Mode {
	case HWL:
		return int(s.startPrime(line) % uint64(s.totalBits))
	case HWLHashed:
		return int(mix64(s.startPrime(line), line) % uint64(s.totalBits))
	default:
		return 0
	}
}

// rotate returns (data, meta) rotated as a single bit string by k bits.
func (s *StartGap) rotate(data, meta []byte, k int) (rdata, rmeta []byte) {
	return rotateImage(s.inner.Config(), s.totalBits, data, meta, k)
}

// rotateImage rotates a line's combined data+metadata bit image by k bits,
// the HWL shifter operation shared by every wear leveler in this package.
func rotateImage(cfg pcmdev.Config, totalBits int, data, meta []byte, k int) (rdata, rmeta []byte) {
	if k == 0 {
		return bitutil.Clone(data), bitutil.Clone(meta)
	}
	// Pack data and the first MetaBits of meta into one bit image.
	img := make([]byte, (totalBits+7)/8)
	copy(img, data)
	for i := 0; i < cfg.MetaBits; i++ {
		bitutil.SetBit(img, cfg.LineBits()+i, bitutil.GetBit(meta, i))
	}
	// The packed image may have padding bits past totalBits; rotate only
	// the live region by working at exact bit length.
	rot := rotateBits(img, totalBits, k)
	// Unpack.
	rdata = make([]byte, cfg.LineBytes)
	copy(rdata, rot[:cfg.LineBytes])
	rmeta = make([]byte, (cfg.MetaBits+7)/8)
	for i := 0; i < cfg.MetaBits; i++ {
		bitutil.SetBit(rmeta, i, bitutil.GetBit(rot, cfg.LineBits()+i))
	}
	return rdata, rmeta
}

// rotateBits rotates the first n bits of img left by k, leaving padding zero.
func rotateBits(img []byte, n, k int) []byte {
	out := make([]byte, len(img))
	k = ((k % n) + n) % n
	for i := 0; i < n; i++ {
		if bitutil.GetBit(img, i) {
			bitutil.SetBit(out, (i+k)%n, true)
		}
	}
	return out
}

// Write implements pcmdev.Array. Every Psi-th write additionally moves the
// gap, which is the moment a line's rotation amount advances.
func (s *StartGap) Write(line uint64, data, meta []byte) pcmdev.WriteResult {
	s.checkLine(line)
	rdata, rmeta := s.rotate(data, meta, s.rotation(line))
	res := s.inner.Write(s.physical(line), rdata, s.metaOrNil(rmeta))

	s.writesSinceMove++
	if s.writesSinceMove >= s.cfg.Psi {
		s.writesSinceMove = 0
		if !s.cfg.FreeGapMoves {
			// The gap-move copy below writes the inner device again,
			// clobbering the scratch buffer res.SlotFlips aliases.
			res.SlotFlips = append([]int(nil), res.SlotFlips...)
		}
		s.moveGap()
	}
	return res
}

// Peek implements pcmdev.Array.
func (s *StartGap) Peek(line uint64) (data, meta []byte) {
	s.checkLine(line)
	d, m := s.inner.Peek(s.physical(line))
	return s.rotate(d, m, -s.rotation(line))
}

// PeekInto implements pcmdev.Array. The de-rotation allocates; wear-leveled
// arrays are not on the zero-allocation fast path.
func (s *StartGap) PeekInto(line uint64, data, meta []byte) {
	d, m := s.Peek(line)
	copy(data, d)
	copy(meta, m)
}

// ReadInto implements pcmdev.Array: the inner device's read, counted
// there, then de-rotated in place. The de-rotation allocates; wear-leveled
// arrays are not on the zero-allocation read path.
func (s *StartGap) ReadInto(line uint64, data, meta []byte) {
	s.checkLine(line)
	s.inner.ReadInto(s.physical(line), data, meta)
	d, m := s.rotate(data, meta, -s.rotation(line))
	copy(data, d)
	copy(meta, m)
}

// Load implements pcmdev.Array.
func (s *StartGap) Load(line uint64, data, meta []byte) {
	s.checkLine(line)
	rdata, rmeta := s.rotate(data, meta, s.rotation(line))
	s.inner.Load(s.physical(line), rdata, s.metaOrNil(rmeta))
}

// moveGap advances the gap by one position: the line just before the gap
// (circularly) moves into the gap slot, acquiring its new rotation amount in
// the same write (§5.3, Figure 13c).
func (s *StartGap) moveGap() {
	s.gapMoves++
	if s.gap == 0 {
		// Wrap: the line at physical N moves to physical 0 and the
		// Start register increments. Every line's Start' is already
		// Start+1 at this point, so no rotation change occurs and the
		// copy is verbatim.
		d, m := s.inner.Peek(uint64(s.n))
		s.store(0, d, s.metaOrNil(m))
		s.gap = s.n
		s.start = (s.start + 1) % s.n
		s.rounds++
		return
	}
	// The logical line currently at physical gap-1 moves to physical gap.
	// Its Start' increases by one as the gap passes it, so under HWL the
	// copy applies one extra rotation step.
	movedLine := uint64(((s.gap-1-s.start)%s.n + s.n) % s.n)
	oldRot := s.rotation(movedLine) // gap has not passed it yet
	d, m := s.inner.Peek(uint64(s.gap - 1))
	s.gap--
	newRot := s.rotation(movedLine) // now it has
	if delta := newRot - oldRot; delta != 0 {
		data, meta := s.rotate(d, m, delta)
		s.store(s.physical(movedLine), data, s.metaOrNil(meta))
	} else {
		s.store(s.physical(movedLine), d, s.metaOrNil(m))
	}
}

// store commits a gap-move copy, with or without cost accounting per
// FreeGapMoves.
func (s *StartGap) store(phys uint64, data, meta []byte) {
	if s.cfg.FreeGapMoves {
		s.inner.Load(phys, data, meta)
		return
	}
	s.inner.Write(phys, data, meta)
}

func (s *StartGap) metaOrNil(m []byte) []byte {
	if s.inner.Config().MetaBits == 0 {
		return nil
	}
	return m
}

// Config implements pcmdev.Array, reporting the logical geometry.
func (s *StartGap) Config() pcmdev.Config {
	cfg := s.inner.Config()
	cfg.Lines = s.n
	return cfg
}

// Stats implements pcmdev.Array. Gap-move writes are included: they are
// real cell programs and part of Start-Gap's (small) overhead.
func (s *StartGap) Stats() pcmdev.Stats { return s.inner.Stats() }

// ResetStats implements pcmdev.Array.
func (s *StartGap) ResetStats() { s.inner.ResetStats() }

// PositionWrites implements pcmdev.Array.
func (s *StartGap) PositionWrites() []uint64 { return s.inner.PositionWrites() }

// LineWrites implements pcmdev.Array: the physical per-line distribution,
// i.e. after Start-Gap remapping — the profile VWL flattens.
func (s *StartGap) LineWrites() []uint64 { return s.inner.LineWrites() }

// GapMoves returns how many gap movements have occurred.
func (s *StartGap) GapMoves() uint64 { return s.gapMoves }

// StartRegister returns the current value of the Start register.
func (s *StartGap) StartRegister() int { return s.start }

// GapPosition returns the current physical position of the gap line.
func (s *StartGap) GapPosition() int { return s.gap }

func (s *StartGap) checkLine(line uint64) {
	if line >= uint64(s.n) {
		panic(fmt.Sprintf("wear: logical line %d out of range [0,%d)", line, s.n))
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

var _ pcmdev.Array = (*StartGap)(nil)

// InnerDevice exposes the physical array for wear analysis (per-physical-
// line write distributions live below the remapping layer).
func (s *StartGap) InnerDevice() *pcmdev.Device { return s.inner }
