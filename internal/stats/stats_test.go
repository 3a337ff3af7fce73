package stats

import (
	"math"
	"testing"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMean(t *testing.T) {
	if m := Mean([]float64{1, 2, 3, 4}); !almost(m, 2.5) {
		t.Errorf("Mean(1..4) = %v, want 2.5", m)
	}
	if m := Mean(nil); m != 0 {
		t.Errorf("Mean(nil) = %v, want 0", m)
	}
}

func TestGeoMean(t *testing.T) {
	if g := GeoMean([]float64{1, 4}); !almost(g, 2) {
		t.Errorf("GeoMean(1,4) = %v, want 2", g)
	}
	if g := GeoMean(nil); g != 0 {
		t.Errorf("GeoMean(nil) = %v, want 0", g)
	}
	defer func() {
		if recover() == nil {
			t.Error("GeoMean of non-positive did not panic")
		}
	}()
	GeoMean([]float64{1, 0})
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	if p := Percentile(xs, 50); p != 3 {
		t.Errorf("P50 = %v, want 3", p)
	}
	if p := Percentile(xs, 100); p != 5 {
		t.Errorf("P100 = %v, want 5", p)
	}
	if p := Percentile(xs, 0); p != 1 {
		t.Errorf("P0 = %v, want 1", p)
	}
	// Input must not be mutated.
	if xs[0] != 5 {
		t.Error("Percentile sorted its input in place")
	}
}

func TestPercentilePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("empty Percentile did not panic")
		}
	}()
	Percentile(nil, 50)
}
