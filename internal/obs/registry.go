// Package obs is the simulator's observability layer: a metrics registry,
// a sampled write-event trace, wear heatmaps, experiment progress tracking,
// a run manifest, and a debug HTTP endpoint.
//
// The design rule throughout is "zero allocation on the hot path": a scheme
// or device increments counters through pre-resolved handles and records
// events into a pre-sized ring. All aggregation, formatting and export
// happens off the write path, at snapshot or export time. Counter, Gauge
// and Histogram updates are atomic — lock-free and safe from any number of
// goroutines — while staying allocation-free. Registration (the name →
// handle lookups) takes the registry mutex and belongs in setup code, never
// on a hot path.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. Updates are atomic: any
// goroutine may increment through the handle.
type Counter struct {
	name string
	v    atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Name returns the registered name.
func (c *Counter) Name() string { return c.name }

// Gauge is a last-value-wins metric (e.g. current epoch, ring occupancy).
// Updates are atomic (the float64 is stored by bits).
type Gauge struct {
	name string
	bits atomic.Uint64
}

// Set stores the value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the stored value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Name returns the registered name.
func (g *Gauge) Name() string { return g.name }

// Histogram counts uint64 observations into buckets with explicit upper
// bounds (the last bucket is unbounded). Observe is allocation-free and
// lock-free: bucket, count and sum update atomically, so concurrent
// observers lose nothing (the three adds are independently atomic, not a
// transaction — a concurrent snapshot may see an observation's bucket
// before its sum, which evens out at quiescence).
type Histogram struct {
	name   string
	bounds []uint64 // bucket i counts v <= bounds[i]; len(counts) = len(bounds)+1
	counts []atomic.Uint64
	n      atomic.Uint64
	sum    atomic.Uint64
}

// Observe counts one observation.
func (h *Histogram) Observe(v uint64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.n.Add(1)
	h.sum.Add(v)
}

// N returns the observation count.
func (h *Histogram) N() uint64 { return h.n.Load() }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() uint64 { return h.sum.Load() }

// Counts returns a copy of the bucket counts; the final element counts
// observations above the last bound.
func (h *Histogram) Counts() []uint64 {
	out := make([]uint64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}

// Bounds returns a copy of the bucket upper bounds.
func (h *Histogram) Bounds() []uint64 {
	out := make([]uint64, len(h.bounds))
	copy(out, h.bounds)
	return out
}

// Name returns the registered name.
func (h *Histogram) Name() string { return h.name }

// Registry holds named metrics. Handles returned by Counter/Gauge/Histogram
// stay valid for the registry's lifetime, so hot paths resolve names once at
// setup and then touch only the handle. The handle maps are mutex-guarded
// (registration and snapshots may race from different goroutines); the
// handles themselves are atomic, so the update path never touches the lock.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the counter with the given name, creating it at zero on
// first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	c := &Counter{name: name}
	r.counters[name] = c
	return c
}

// Gauge returns the gauge with the given name, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name]; ok {
		return g
	}
	g := &Gauge{name: name}
	r.gauges[name] = g
	return g
}

// Histogram returns the histogram with the given name, creating it with the
// given bucket bounds on first use. bounds must be sorted ascending; later
// calls for an existing name ignore bounds.
func (r *Registry) Histogram(name string, bounds []uint64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.hists[name]; ok {
		return h
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram %q bounds not ascending: %v", name, bounds))
		}
	}
	h := &Histogram{
		name:   name,
		bounds: append([]uint64(nil), bounds...),
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
	r.hists[name] = h
	return h
}

// Reset zeroes every registered metric, keeping the handles valid — the
// registry analogue of pcmdev.Device.ResetStats. Not a consistent cut
// against concurrent updaters: an in-flight Observe may land partly before
// and partly after the zeroing.
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.counters {
		c.v.Store(0)
	}
	for _, g := range r.gauges {
		g.bits.Store(0)
	}
	for _, h := range r.hists {
		for i := range h.counts {
			h.counts[i].Store(0)
		}
		h.n.Store(0)
		h.sum.Store(0)
	}
}

// HistValues is the detached snapshot of one histogram: bucket bounds and
// counts plus the running count and sum, readable without the live
// handle.
type HistValues struct {
	// Bounds holds the bucket upper bounds; Counts has one extra final
	// element counting observations above the last bound.
	Bounds []uint64 `json:"bounds,omitempty"`
	Counts []uint64 `json:"counts"`
	N      uint64   `json:"n"`
	Sum    uint64   `json:"sum"`
}

// Snapshot is a point-in-time copy of a registry's values, detached from
// the live metrics.
type Snapshot struct {
	Counters map[string]uint64  `json:"counters,omitempty"`
	Gauges   map[string]float64 `json:"gauges,omitempty"`
	// Hists maps histogram name to its detached bucket/summary values.
	Hists map[string]HistValues `json:"hists,omitempty"`
}

// Snapshot copies the current values out of the registry. Safe
// concurrently with updates; values updated mid-snapshot land in one
// snapshot or the next, never nowhere.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{
		Counters: make(map[string]uint64, len(r.counters)),
		Gauges:   make(map[string]float64, len(r.gauges)),
		Hists:    make(map[string]HistValues, len(r.hists)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		s.Hists[name] = HistValues{
			Bounds: h.Bounds(),
			Counts: h.Counts(),
			N:      h.N(),
			Sum:    h.Sum(),
		}
	}
	return s
}

// Delta returns this snapshot minus prev: counters and histogram buckets
// subtract (a name missing from prev counts from zero), gauges keep their
// current value. Snapshot-then-Delta replaces the reset-then-read pattern
// whose asymmetry loses counts when something else resets the source.
func (s Snapshot) Delta(prev Snapshot) Snapshot {
	d := Snapshot{
		Counters: make(map[string]uint64, len(s.Counters)),
		Gauges:   make(map[string]float64, len(s.Gauges)),
		Hists:    make(map[string]HistValues, len(s.Hists)),
	}
	for name, v := range s.Counters {
		d.Counters[name] = v - prev.Counters[name]
	}
	for name, v := range s.Gauges {
		d.Gauges[name] = v
	}
	for name, h := range s.Hists {
		ph := prev.Hists[name]
		out := HistValues{
			Bounds: append([]uint64(nil), h.Bounds...),
			Counts: make([]uint64, len(h.Counts)),
			N:      h.N - ph.N,
			Sum:    h.Sum - ph.Sum,
		}
		for i, c := range h.Counts {
			if i < len(ph.Counts) {
				c -= ph.Counts[i]
			}
			out.Counts[i] = c
		}
		d.Hists[name] = out
	}
	return d
}

// WriteTo renders the snapshot as sorted "name value" lines.
func (s Snapshot) WriteTo(w io.Writer) (int64, error) {
	var b strings.Builder
	names := make([]string, 0, len(s.Counters))
	for name := range s.Counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(&b, "%s %d\n", name, s.Counters[name])
	}
	names = names[:0]
	for name := range s.Gauges {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(&b, "%s %g\n", name, s.Gauges[name])
	}
	names = names[:0]
	for name := range s.Hists {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(&b, "%s %v\n", name, s.Hists[name].Counts)
	}
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

// String renders the snapshot as sorted "name value" lines.
func (s Snapshot) String() string {
	var b strings.Builder
	s.WriteTo(&b)
	return b.String()
}

// WriteJSONFile writes the snapshot as indented JSON to path, creating
// parent directories as needed. This is the export behind the cmds'
// -metrics flag.
func (s Snapshot) WriteJSONFile(path string) error {
	blob, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	if dir := filepath.Dir(path); dir != "." && dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}
