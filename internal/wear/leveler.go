// Package wear implements the durability machinery of the paper's §5: one
// wear leveler (leveler.go), the register state of a remapped
// pcmdev.Device, with two vertical wear-leveling policies,
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
	"fmt"

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
	// step advances the registers by one move and has the device
	// relocate the lines it remaps.
	step()
}

// leveler is what every vertical wear leveler shares: its policy supplies
// the mapping, the mode the HWL rotation, and it counts the writes between
// steps. The memory (§5.3: "the memory is equipped with
// shifters") is a remapped pcmdev.Device that stores each line in logical
// order and rotates only what it programs. A line's rotation only changes
// at the moment a step relocates it anyway, so rotation costs no extra
// write.
type leveler struct {
	dev *pcmdev.Device
	cfg StartGapConfig
	pol policy
	n   int // logical lines

	writesSinceStep int
}

// remap is a leveler as its device's pcmdev.Remap. Its methods are not
// promoted to the policies, so only the device steps the registers.
type remap leveler

var _ pcmdev.Remap = (*remap)(nil)

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

// init builds the remapped device of devCfg.Lines logical lines over rows
// physical rows, placed by pol.
func (l *leveler) init(devCfg pcmdev.Config, rows int, cfg StartGapConfig, pol policy) error {
	l.cfg, l.pol, l.n = cfg, pol, devCfg.Lines
	dev, err := pcmdev.NewRemapped(devCfg, rows, (*remap)(l), cfg.FreeGapMoves)
	l.dev = dev
	return err
}

// Device returns the wear-leveled memory schemes write to.
func (l *leveler) Device() *pcmdev.Device { return l.dev }

// Row implements pcmdev.Remap.
func (l *remap) Row(line uint64) uint64 { return l.pol.physical(line) }

// Rotation implements pcmdev.Remap: the line's HWL rotation amount, which
// the device takes modulo the cells in a line.
func (l *remap) Rotation(line uint64) uint64 {
	switch l.cfg.Mode {
	case HWL:
		return l.pol.moves(line)
	case HWLHashed:
		return mix64(l.pol.moves(line), line)
	}
	return 0
}

// Wrote implements pcmdev.Remap. Every Psi-th write takes one policy step,
// which is the moment a line's rotation amount advances.
func (l *remap) Wrote() {
	if l.writesSinceStep++; l.writesSinceStep >= l.cfg.Psi {
		l.writesSinceStep = 0
		l.pol.step()
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
