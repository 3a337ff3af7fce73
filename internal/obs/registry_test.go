package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestRegistryCounterGaugeHistogram(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("writes")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("writes") != c {
		t.Fatal("Counter not idempotent for the same name")
	}

	g := r.Gauge("epoch")
	g.Set(3)
	if got := g.Value(); got != 3 {
		t.Fatalf("gauge = %v, want 3", got)
	}

	h := r.Histogram("slots", []uint64{1, 2, 4})
	for _, v := range []uint64{0, 1, 2, 3, 4, 5, 100} {
		h.Observe(v)
	}
	// buckets: <=1: {0,1}, <=2: {2}, <=4: {3,4}, >4: {5,100}
	want := []uint64{2, 1, 2, 2}
	got := h.Counts()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("histogram counts = %v, want %v", got, want)
		}
	}
	if h.N() != 7 || h.Sum() != 115 {
		t.Fatalf("histogram n=%d sum=%d, want 7, 115", h.N(), h.Sum())
	}
}

func TestSnapshotDeltaReset(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("flips")
	h := r.Histogram("slots", []uint64{2})
	c.Add(10)
	h.Observe(1)
	prev := r.Snapshot()

	c.Add(7)
	h.Observe(1)
	h.Observe(5)
	d := r.Snapshot().Delta(prev)
	if d.Counters["flips"] != 7 {
		t.Fatalf("delta counter = %d, want 7", d.Counters["flips"])
	}
	if got := d.Hists["slots"]; got.Counts[0] != 1 || got.Counts[1] != 1 {
		t.Fatalf("delta hist = %v, want [1 1]", got.Counts)
	}
	if got := d.Hists["slots"]; got.N != 2 || got.Sum != 6 {
		t.Fatalf("delta hist n=%d sum=%d, want 2/6", got.N, got.Sum)
	}

	// Delta against an empty snapshot counts from zero.
	d0 := r.Snapshot().Delta(Snapshot{})
	if d0.Counters["flips"] != 17 {
		t.Fatalf("delta vs empty = %d, want 17", d0.Counters["flips"])
	}

	r.Reset()
	if c.Value() != 0 || h.N() != 0 {
		t.Fatalf("Reset left counter=%d histN=%d", c.Value(), h.N())
	}
	// Handles stay live after Reset.
	c.Inc()
	if r.Counter("flips").Value() != 1 {
		t.Fatal("handle dead after Reset")
	}
}

func TestSnapshotString(t *testing.T) {
	r := NewRegistry()
	r.Counter("b").Add(2)
	r.Counter("a").Add(1)
	r.Gauge("g").Set(0.5)
	s := r.Snapshot().String()
	ai, bi := strings.Index(s, "a 1"), strings.Index(s, "b 2")
	if ai < 0 || bi < 0 || ai > bi {
		t.Fatalf("snapshot rendering unsorted or missing entries:\n%s", s)
	}
	if !strings.Contains(s, "g 0.5") {
		t.Fatalf("gauge missing from rendering:\n%s", s)
	}
}

// The acceptance bar for the registry's concurrency retrofit: 64
// goroutines hammering one registry's counters, gauges and histograms
// (run under -race in make race-timing) must lose no updates.
func TestRegistryConcurrentHammer(t *testing.T) {
	const goroutines = 64
	const perG = 1000
	r := NewRegistry()
	c := r.Counter("ops")
	g := r.Gauge("epoch")
	h := r.Histogram("lat", []uint64{8, 64, 512})
	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			// Half the goroutines register concurrently too: handle
			// creation must be safe alongside updates and snapshots.
			if id%2 == 0 {
				r.Counter("ops").Add(0)
			}
			for i := 0; i < perG; i++ {
				c.Inc()
				g.Set(float64(id))
				h.Observe(uint64(i))
			}
		}(w)
	}
	for i := 0; i < 25; i++ {
		_ = r.Snapshot() // concurrent snapshots must be safe
	}
	wg.Wait()
	if got := c.Value(); got != goroutines*perG {
		t.Fatalf("counter lost updates: %d, want %d", got, goroutines*perG)
	}
	if got := h.N(); got != goroutines*perG {
		t.Fatalf("histogram lost observations: %d, want %d", got, goroutines*perG)
	}
	var total uint64
	for _, n := range h.Counts() {
		total += n
	}
	if total != goroutines*perG {
		t.Fatalf("bucket counts sum to %d, want %d", total, goroutines*perG)
	}
}

// Hot-path operations must not allocate: schemes call these per write.
func TestHotPathAllocs(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("flips")
	g := r.Gauge("epoch")
	h := r.Histogram("slots", []uint64{1, 2, 3})
	if n := testing.AllocsPerRun(200, func() {
		c.Add(3)
		g.Set(1)
		h.Observe(2)
	}); n != 0 {
		t.Fatalf("metric updates allocate %.2f times per run, want 0", n)
	}
}
