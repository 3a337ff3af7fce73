// Package stats provides the small statistical toolkit the experiment
// harness uses: streaming moments (Welford), histograms, and geometric
// means (the conventional aggregate for speedup figures).
//
// Concurrency: every accumulator is unlocked single-owner state — one
// goroutine feeds it, then reads it. The concurrency-safe counterparts
// are obs.Registry's atomic Counter, Gauge and Histogram, not here.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Stream accumulates count, mean and variance in one pass (Welford's
// algorithm). The zero value is ready to use.
type Stream struct {
	n    uint64
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add folds one observation into the stream.
func (s *Stream) Add(x float64) {
	s.n++
	if s.n == 1 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	d := x - s.mean
	s.mean += d / float64(s.n)
	s.m2 += d * (x - s.mean)
}

// AddN folds an observation with integer weight n.
func (s *Stream) AddN(x float64, n uint64) {
	for i := uint64(0); i < n; i++ {
		s.Add(x)
	}
}

// N returns the observation count.
func (s *Stream) N() uint64 { return s.n }

// Mean returns the running mean (0 for an empty stream).
func (s *Stream) Mean() float64 { return s.mean }

// Min returns the smallest observation (0 for an empty stream).
func (s *Stream) Min() float64 { return s.min }

// Max returns the largest observation (0 for an empty stream).
func (s *Stream) Max() float64 { return s.max }

// Variance returns the population variance.
func (s *Stream) Variance() float64 {
	if s.n == 0 {
		return 0
	}
	return s.m2 / float64(s.n)
}

// StdDev returns the population standard deviation.
func (s *Stream) StdDev() float64 { return math.Sqrt(s.Variance()) }

// String implements fmt.Stringer for debugging output.
func (s *Stream) String() string {
	return fmt.Sprintf("n=%d mean=%.4g sd=%.4g min=%.4g max=%.4g",
		s.n, s.Mean(), s.StdDev(), s.min, s.max)
}

// GeoMean returns the geometric mean of xs; it panics on non-positive
// inputs, which are always a bug for ratio metrics like speedup.
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			panic(fmt.Sprintf("stats: GeoMean of non-positive value %v", x))
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// Mean returns the arithmetic mean of xs (0 for an empty slice).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Percentile returns the p-th percentile (0..100) of xs using
// nearest-rank on a sorted copy. It panics on an empty slice.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		panic("stats: Percentile of empty slice")
	}
	if p < 0 || p > 100 {
		panic(fmt.Sprintf("stats: percentile %v out of [0,100]", p))
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if p == 0 {
		return sorted[0]
	}
	rank := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	return sorted[rank]
}

// Histogram counts observations into fixed-width bins over [lo, hi); values
// outside the range land in the saturating edge bins.
type Histogram struct {
	lo, hi float64
	bins   []uint64
	n      uint64
}

// NewHistogram creates a histogram with the given bin count over [lo, hi).
func NewHistogram(lo, hi float64, bins int) (*Histogram, error) {
	if bins <= 0 {
		return nil, fmt.Errorf("stats: bins must be positive, got %d", bins)
	}
	if !(lo < hi) {
		return nil, fmt.Errorf("stats: need lo < hi, got [%v,%v)", lo, hi)
	}
	return &Histogram{lo: lo, hi: hi, bins: make([]uint64, bins)}, nil
}

// MustNewHistogram is NewHistogram for arguments known to be valid.
func MustNewHistogram(lo, hi float64, bins int) *Histogram {
	h, err := NewHistogram(lo, hi, bins)
	if err != nil {
		panic(err)
	}
	return h
}

// Add counts one observation.
func (h *Histogram) Add(x float64) {
	i := int((x - h.lo) / (h.hi - h.lo) * float64(len(h.bins)))
	if i < 0 {
		i = 0
	}
	if i >= len(h.bins) {
		i = len(h.bins) - 1
	}
	h.bins[i]++
	h.n++
}

// N returns the total observation count.
func (h *Histogram) N() uint64 { return h.n }

// Bins returns a copy of the bin counts.
func (h *Histogram) Bins() []uint64 {
	out := make([]uint64, len(h.bins))
	copy(out, h.bins)
	return out
}

// BinCenter returns the midpoint value of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	w := (h.hi - h.lo) / float64(len(h.bins))
	return h.lo + w*(float64(i)+0.5)
}
