package wear

import (
	"fmt"
	"math/rand"

	"deuce/internal/pcmdev"
)

// SecurityRefresh implements the other vertical wear-leveling algorithm the
// paper names in §5.2: Security Refresh (Seong, Woo & Lee, ISCA 2010).
// Lines are remapped by XOR-ing the address with a secret key; a refresh
// pointer sweeps the address space swapping lines pairwise from the current
// key's mapping to the next key's, and when a sweep completes a fresh
// random key is drawn. Unlike Start-Gap's deterministic rotation, the
// mapping is unpredictable to an attacker without the keys.
//
// The XOR structure makes remapping pairwise: logical lines LA and LA⊕d
// (d = kc⊕kn) exchange physical slots when the pointer processes their
// pair. A line is "processed" this round when its pair's canonical index
// (min of the two) is below the pointer.
//
// The paper's Horizontal Wear Leveling extension applies here exactly as
// it does to Start-Gap, through the same leveler: each line is physically
// rewritten once per round (its pair swap), which is the free moment to
// advance its intra-line rotation. Rotation amounts derive from the line's
// completed-round count, plainly or hashed (footnote 2).
type SecurityRefresh struct {
	leveler
	rng *rand.Rand

	kc uint64 // current key
	kn uint64 // next key
	p  uint64 // refresh pointer over canonical pair indices

	rounds uint64 // completed sweeps
	swaps  uint64
}

// NewSecurityRefresh builds Security Refresh over a device of the logical
// geometry in devCfg. The line count must be a power of two (XOR
// remapping); seed makes the key sequence deterministic for experiments.
func NewSecurityRefresh(devCfg pcmdev.Config, cfg StartGapConfig, seed int64) (*SecurityRefresh, error) {
	if err := cfg.check(); err != nil {
		return nil, err
	}
	if devCfg.Lines < 2 || devCfg.Lines&(devCfg.Lines-1) != 0 {
		return nil, fmt.Errorf("wear: SecurityRefresh needs a power-of-two line count, got %d", devCfg.Lines)
	}
	s := &SecurityRefresh{
		rng: rand.New(rand.NewSource(seed)),
		kc:  0, // identity mapping at boot: fresh array reads back zeroes
	}
	s.n = devCfg.Lines // freshKey draws below it, before the device exists
	s.kn = s.freshKey()
	if err := s.init(devCfg, devCfg.Lines, cfg, s); err != nil {
		return nil, err
	}
	return s, nil
}

// MustNewSecurityRefresh is NewSecurityRefresh for valid configurations.
func MustNewSecurityRefresh(devCfg pcmdev.Config, cfg StartGapConfig, seed int64) *SecurityRefresh {
	s, err := NewSecurityRefresh(devCfg, cfg, seed)
	if err != nil {
		panic(err)
	}
	return s
}

// freshKey draws a non-degenerate next key (kn != kc keeps pairs disjoint).
func (s *SecurityRefresh) freshKey() uint64 {
	for {
		k := uint64(s.rng.Intn(s.n))
		if k != s.kc {
			return k
		}
	}
}

// processed reports whether the line's pair has been remapped this round.
func (s *SecurityRefresh) processed(line uint64) bool {
	d := s.kc ^ s.kn
	canon := line
	if other := line ^ d; other < canon {
		canon = other
	}
	return canon < s.p
}

// physical maps a logical line to its current physical slot.
func (s *SecurityRefresh) physical(line uint64) uint64 {
	if s.processed(line) {
		return line ^ s.kn
	}
	return line ^ s.kc
}

// moves returns the number of times the line has been physically
// rewritten by refresh sweeps (the HWL rotation counter).
func (s *SecurityRefresh) moves(line uint64) uint64 {
	if s.processed(line) {
		return s.rounds + 1
	}
	return s.rounds
}

// step processes one canonical pair: the two logical lines of the pair
// exchange physical slots (moving from the kc mapping to kn), acquiring
// their next rotation amounts in the same rewrite.
func (s *SecurityRefresh) step() {
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
	s.p++    // the pair is now processed: mappings and rotations advance
	s.swaps++
	s.dev.Exchange(a, a^d)

	if s.p >= uint64(s.n) {
		s.completeRound()
	}
}

// completeRound retires the current key and draws the next.
func (s *SecurityRefresh) completeRound() {
	s.kc = s.kn
	s.kn = s.freshKey()
	s.p = 0
	s.rounds++
}

// Rounds returns completed refresh sweeps.
func (s *SecurityRefresh) Rounds() uint64 { return s.rounds }

// Swaps returns pair swaps performed.
func (s *SecurityRefresh) Swaps() uint64 { return s.swaps }
