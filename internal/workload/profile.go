// Package workload synthesizes memory writeback streams whose statistics
// match the SPEC CPU2006 benchmarks of the paper's Table 2. The paper's
// results are all functions of a handful of writeback-stream properties:
//
//   - how many 2-byte words a writeback modifies (write density),
//   - how stable the set of modified words is across writes to the same
//     line (footprint stability — what DEUCE's epoch bits exploit),
//   - how values change inside a modified word (counters flip low bits
//     every time, floats churn mantissas, pointers look random),
//   - how correlated footprints are across lines (arrays of structs put
//     the hot fields at the same offsets in every line — the source of
//     Figure 12's 27x per-bit-position skew), and
//   - how skewed line reuse is (hot working sets).
//
// Each Profile encodes those properties for one benchmark; Generator turns
// a profile into a deterministic stream of writebacks and read misses.
//
// Concurrency: a Generator is unlocked single-owner state (it advances a
// deterministic math/rand stream). Experiment runners share a stream by
// recording it once (internal/exp's stream store) and replaying the
// recording, never by sharing a Generator.
package workload

import "fmt"

// ValueModel describes how the payload of a modified word evolves.
type ValueModel int

// Value models.
const (
	// ValueRandom XORs a random mask into the word (pointers, hashes,
	// compressed data). Bit flips are uniform within the word.
	ValueRandom ValueModel = iota
	// ValueCounter increments the word as an integer (loop counters,
	// indices): the LSB flips on every update, bit k with probability
	// 2^-k. This is what gives libquantum its extreme bit-position skew.
	ValueCounter
	// ValueFloat churns the low mantissa bits of a float-like word:
	// flip probability decays linearly with bit position.
	ValueFloat
)

// String implements fmt.Stringer.
func (m ValueModel) String() string {
	switch m {
	case ValueRandom:
		return "random"
	case ValueCounter:
		return "counter"
	case ValueFloat:
		return "float"
	default:
		return fmt.Sprintf("ValueModel(%d)", int(m))
	}
}

// Profile is the generative model of one benchmark's memory behaviour.
type Profile struct {
	// Name is the benchmark name as listed in Table 2.
	Name string
	// MPKI is L4 read misses per kilo-instruction (Table 2).
	MPKI float64
	// WBPKI is L4 writebacks per kilo-instruction (Table 2).
	WBPKI float64

	// FootprintWords is the size of a line's stable modified-word
	// footprint, in 2-byte words (out of 32).
	FootprintWords int
	// WordsPerWrite is the mean number of words modified per writeback.
	WordsPerWrite float64
	// Dense marks benchmarks (Gems, soplex) that rewrite most of the
	// line on every writeback; WordsPerWrite then acts as a Binomial
	// mean over all 32 words.
	Dense bool
	// Drift is the probability that a modified word falls outside the
	// stable footprint (transient writes that inflate DEUCE's epoch
	// footprint).
	Drift float64
	// FootprintCorr is the probability that a footprint slot uses the
	// benchmark-wide base offsets rather than a per-line random
	// position (struct-layout correlation across lines).
	FootprintCorr float64
	// BitDensity is the per-bit flip probability inside a modified word
	// for the Random and Float models.
	BitDensity float64
	// Model selects how modified words change value.
	Model ValueModel
	// HotFrac is the fraction of lines forming the hot set.
	HotFrac float64
	// HotWeight is the fraction of traffic going to the hot set.
	HotWeight float64
}

// validate rejects meaningless profiles early.
func (p Profile) validate() error {
	if p.Name == "" {
		return fmt.Errorf("workload: profile without a name")
	}
	if p.FootprintWords < 1 || p.FootprintWords > 32 {
		return fmt.Errorf("workload %s: FootprintWords %d out of [1,32]", p.Name, p.FootprintWords)
	}
	if p.WordsPerWrite < 0.5 || p.WordsPerWrite > 32 {
		return fmt.Errorf("workload %s: WordsPerWrite %v out of [0.5,32]", p.Name, p.WordsPerWrite)
	}
	if p.Drift < 0 || p.Drift > 1 || p.FootprintCorr < 0 || p.FootprintCorr > 1 ||
		p.BitDensity < 0 || p.BitDensity > 1 || p.HotFrac <= 0 || p.HotFrac > 1 ||
		p.HotWeight < 0 || p.HotWeight > 1 {
		return fmt.Errorf("workload %s: probability parameter out of range", p.Name)
	}
	if p.MPKI < 0 || p.WBPKI <= 0 {
		return fmt.Errorf("workload %s: non-positive rates", p.Name)
	}
	return nil
}

// SPEC2006 returns the twelve write-intensive SPEC CPU2006 profiles of
// Table 2, in the paper's order (by WBPKI, descending). The write-shape
// parameters are calibrated so that the simulated streams reproduce the
// paper's measured flip statistics (see EXPERIMENTS.md for the
// calibration record).
func SPEC2006() []Profile {
	return []Profile{
		{
			Name: "libq", MPKI: 22.9, WBPKI: 9.78,
			// Quantum register simulation: sweeps of state-vector
			// updates touching the same one or two fields per
			// object, counter-like. Extreme footprint stability
			// and cross-line correlation (27x skew in Fig. 12).
			FootprintWords: 5, WordsPerWrite: 2.5, Drift: 0.04,
			FootprintCorr: 1.0, BitDensity: 0.5, Model: ValueCounter,
			HotFrac: 0.5, HotWeight: 0.6,
		},
		{
			Name: "mcf", MPKI: 16.2, WBPKI: 8.78,
			// Network-simplex pointer updates: few words, random
			// pointer values, well-correlated node layout.
			FootprintWords: 5, WordsPerWrite: 3.4, Drift: 0.03,
			FootprintCorr: 0.8, BitDensity: 0.58, Model: ValueRandom,
			HotFrac: 0.3, HotWeight: 0.7,
		},
		{
			Name: "lbm", MPKI: 14.6, WBPKI: 7.25,
			// Lattice-Boltzmann: streaming stencil over doubles,
			// most of the cell rewritten with mantissa churn.
			FootprintWords: 15, WordsPerWrite: 11, Drift: 0.03,
			FootprintCorr: 0.9, BitDensity: 0.55, Model: ValueFloat,
			HotFrac: 0.9, HotWeight: 0.9,
		},
		{
			Name: "Gems", MPKI: 14.4, WBPKI: 7.14,
			// GemsFDTD: dense field updates — nearly the whole
			// line changes every writeback, which is why DEUCE
			// alone loses to FNW here (Fig. 10).
			FootprintWords: 32, WordsPerWrite: 30, Dense: true,
			Drift: 0.0, FootprintCorr: 1.0, BitDensity: 0.55,
			Model: ValueRandom, HotFrac: 0.9, HotWeight: 0.9,
		},
		{
			Name: "milc", MPKI: 19.6, WBPKI: 6.80,
			// SU(3) matrix elements: double-precision churn over
			// a large part of the line.
			FootprintWords: 15, WordsPerWrite: 13, Drift: 0.03,
			FootprintCorr: 0.9, BitDensity: 0.52, Model: ValueFloat,
			HotFrac: 0.8, HotWeight: 0.85,
		},
		{
			Name: "omnetpp", MPKI: 10.8, WBPKI: 4.71,
			// Discrete-event queues: a couple of pointer/size
			// fields per object, very stable offsets.
			FootprintWords: 4, WordsPerWrite: 2.7, Drift: 0.02,
			FootprintCorr: 0.9, BitDensity: 0.55, Model: ValueRandom,
			HotFrac: 0.2, HotWeight: 0.8,
		},
		{
			Name: "leslie3d", MPKI: 12.8, WBPKI: 4.38,
			// Fluid dynamics: float stencils over a moderate
			// slice of the line.
			FootprintWords: 14, WordsPerWrite: 10, Drift: 0.03,
			FootprintCorr: 0.85, BitDensity: 0.55, Model: ValueFloat,
			HotFrac: 0.9, HotWeight: 0.9,
		},
		{
			Name: "soplex", MPKI: 25.5, WBPKI: 3.97,
			// Simplex LP: dense row updates with near-random
			// coefficient changes — DEUCE's other loss (Fig. 10).
			FootprintWords: 32, WordsPerWrite: 30, Dense: true,
			Drift: 0.0, FootprintCorr: 1.0, BitDensity: 0.55,
			Model: ValueRandom, HotFrac: 0.7, HotWeight: 0.85,
		},
		{
			Name: "zeusmp", MPKI: 4.65, WBPKI: 1.97,
			FootprintWords: 12, WordsPerWrite: 7.8, Drift: 0.03,
			FootprintCorr: 0.85, BitDensity: 0.55, Model: ValueFloat,
			HotFrac: 0.8, HotWeight: 0.85,
		},
		{
			Name: "wrf", MPKI: 3.85, WBPKI: 1.67,
			// Weather model: float churn with a drifting footprint
			// (the benchmark whose flips grow with epoch length in
			// Fig. 9).
			FootprintWords: 13, WordsPerWrite: 7.8, Drift: 0.12,
			FootprintCorr: 0.85, BitDensity: 0.55, Model: ValueFloat,
			HotFrac: 0.7, HotWeight: 0.8,
		},
		{
			Name: "xalanc", MPKI: 1.85, WBPKI: 1.61,
			// XSLT: strings and DOM pointers, moderately sparse.
			FootprintWords: 9, WordsPerWrite: 5.2, Drift: 0.03,
			FootprintCorr: 0.7, BitDensity: 0.58, Model: ValueRandom,
			HotFrac: 0.3, HotWeight: 0.75,
		},
		{
			Name: "astar", MPKI: 1.84, WBPKI: 1.29,
			// Pathfinding: node cost/parent updates.
			FootprintWords: 8, WordsPerWrite: 4.5, Drift: 0.03,
			FootprintCorr: 0.75, BitDensity: 0.55, Model: ValueRandom,
			HotFrac: 0.3, HotWeight: 0.75,
		},
	}
}

// ByName returns the named built-in profile.
func ByName(name string) (Profile, error) {
	for _, p := range SPEC2006() {
		if p.Name == name {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("workload: unknown profile %q", name)
}

// Names returns the built-in profile names in Table 2 order.
func Names() []string {
	ps := SPEC2006()
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = p.Name
	}
	return out
}
