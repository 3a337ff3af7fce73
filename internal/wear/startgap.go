package wear

import (
	"fmt"

	"deuce/internal/pcmdev"
)

// StartGap is Start-Gap remapping with optional Horizontal Wear Leveling.
// Its Device exposes N logical lines over N+1 physical rows (the extra one
// is the gap), so schemes in internal/core can be constructed directly on
// top of it.
//
// The cells of logical line L are always programmed rotated left by rot(L)
// bits, where rot(L) is the line's current HWL rotation amount. The
// invariant is maintained without dedicated rotation writes: a line's
// rotation amount only changes at the moment the gap move copies it anyway
// (§5.3).
type StartGap struct {
	leveler

	start    int    // Start register modulo n, used for address mapping
	rounds   uint64 // total Start increments ever, used for HWL rotation
	gap      int    // physical location of the gap, in [0, n]
	gapMoves uint64
}

// NewStartGap builds Start-Gap over a device of the logical geometry in
// devCfg, with one extra physical row.
func NewStartGap(devCfg pcmdev.Config, cfg StartGapConfig) (*StartGap, error) {
	if err := cfg.check(); err != nil {
		return nil, err
	}
	if devCfg.Lines < 2 {
		return nil, fmt.Errorf("wear: need at least 2 logical lines, got %d", devCfg.Lines)
	}
	s := &StartGap{gap: devCfg.Lines} // gap starts past the last logical line
	if err := s.init(devCfg, devCfg.Lines+1, cfg, s); err != nil {
		return nil, err
	}
	return s, nil
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

// moves returns Start', the per-line effective start count: lines the
// gap has already passed this round have been moved (and rotated) one extra
// time (§5.3). Unlike the mapping register, this value never wraps at n —
// the paper's rotation amount is the total number of rotations the line has
// undergone, modulo the bits in the line.
func (s *StartGap) moves(line uint64) uint64 {
	if s.physical(line) > uint64(s.gap) {
		return s.rounds + 1
	}
	return s.rounds
}

// step advances the gap by one position: the line just before the gap
// (circularly) moves into the gap slot, acquiring its new rotation amount in
// the same write (§5.3, Figure 13c). When the gap wraps from physical 0 to
// N the Start register increments instead; the line at physical N moves to
// physical 0 with its Start' unchanged.
func (s *StartGap) step() {
	s.gapMoves++
	from := uint64((s.gap + s.n) % (s.n + 1))            // physical gap-1, circularly
	moved := uint64((s.gap - 1 - s.start + 2*s.n) % s.n) // the logical line stored there
	if s.gap == 0 {
		s.gap, s.start, s.rounds = s.n, (s.start+1)%s.n, s.rounds+1
	} else {
		s.gap--
	}
	s.dev.Move(moved, from)
}

// GapMoves returns how many gap movements have occurred.
func (s *StartGap) GapMoves() uint64 { return s.gapMoves }

// StartRegister returns the current value of the Start register.
func (s *StartGap) StartRegister() int { return s.start }

// GapPosition returns the current physical position of the gap line.
func (s *StartGap) GapPosition() int { return s.gap }
