package main

import (
	"time"

	"deuce"
	"deuce/internal/backend"
	"deuce/internal/core"
	"deuce/internal/obs"
	"deuce/internal/pcmdev"
)

// The traced pass measures each layer from outside: it builds the scheme
// through core.New and wraps the construction seams (Params.MakeArray,
// Params.MakeBackend) and the scheme itself in the probes below, which
// time every call into the layer they wrap. Nothing is added inside the
// program.

// timedArray wraps the pcmdev array a scheme writes to and accumulates the
// time spent in its write and peek calls.
type timedArray struct {
	pcmdev.Array
	writeNs, writes int64
	peekNs, peeks   int64
}

func (a *timedArray) Write(line uint64, data, meta []byte) pcmdev.WriteResult {
	start := time.Now()
	res := a.Array.Write(line, data, meta)
	a.writeNs += int64(time.Since(start))
	a.writes++
	return res
}

func (a *timedArray) Peek(line uint64) (data, meta []byte) {
	start := time.Now()
	data, meta = a.Array.Peek(line)
	a.peekNs += int64(time.Since(start))
	a.peeks++
	return data, meta
}

func (a *timedArray) PeekInto(line uint64, data, meta []byte) {
	start := time.Now()
	a.Array.PeekInto(line, data, meta)
	a.peekNs += int64(time.Since(start))
	a.peeks++
}

// timedBackend wraps one durable region's page storage and accumulates the
// time spent in page writes and syncs.
type timedBackend struct {
	backend.Backend
	writeNs, writes int64
	syncNs, syncs   int64
}

func (b *timedBackend) WritePage(page int, src []byte) error {
	start := time.Now()
	err := b.Backend.WritePage(page, src)
	b.writeNs += int64(time.Since(start))
	b.writes++
	return err
}

func (b *timedBackend) Sync() error {
	start := time.Now()
	err := b.Backend.Sync()
	b.syncNs += int64(time.Since(start))
	b.syncs++
	return err
}

// timedPager is a timedBackend over storage with a zero-copy page view. It
// forwards Page, so pcmdev keeps the mmap fast path it would have without
// the probe.
type timedPager struct {
	*timedBackend
	pager backend.Pager
}

func (p timedPager) Page(page int) []byte { return p.pager.Page(page) }

// backendProbes is a Params.MakeBackend wrapper: it times each open and
// wraps each region's backend in a timedBackend.
type backendProbes struct {
	inner   func(region string, pages, pageSize int) (backend.Backend, error)
	regions map[string]*timedBackend // the latest open of each region
	openNs  []float64
}

func newBackendProbes(inner func(region string, pages, pageSize int) (backend.Backend, error)) *backendProbes {
	return &backendProbes{inner: inner, regions: make(map[string]*timedBackend)}
}

func (p *backendProbes) open(region string, pages, pageSize int) (backend.Backend, error) {
	start := time.Now()
	be, err := p.inner(region, pages, pageSize)
	p.openNs = append(p.openNs, float64(time.Since(start)))
	if err != nil {
		return nil, err
	}
	tb := &timedBackend{Backend: be}
	p.regions[region] = tb
	if pg := backend.AsPager(be); pg != nil {
		return timedPager{tb, pg}, nil
	}
	return tb, nil
}

// tracedCore is a core scheme behind the calls the workloads make on a
// deuce.Memory, timing every Write and Sync.
type tracedCore struct {
	core.Scheme
	arr     *timedArray    // nil unless built with an array probe
	backs   *backendProbes // nil unless built with backend probes
	writeNs int64
	writes  int64
	syncs   []time.Duration
}

// newTracedCore builds kind over lines, handing every write event to
// events. With backends nil, the scheme's pcmdev array is wrapped in a
// timedArray; otherwise its durable regions open through the backend
// probes (core.Params takes one seam or the other, never both).
func newTracedCore(kind core.Kind, lines int, backends *backendProbes, events *obs.Trace) (*tracedCore, error) {
	t := &tracedCore{backs: backends}
	p := core.Params{Lines: lines, Trace: events}
	if backends != nil {
		p.MakeBackend = backends.open
	} else {
		p.MakeArray = func(cfg pcmdev.Config) (pcmdev.Array, error) {
			dev, err := pcmdev.New(cfg)
			if err != nil {
				return nil, err
			}
			t.arr = &timedArray{Array: dev}
			return t.arr, nil
		}
	}
	s, err := core.New(kind, p)
	if err != nil {
		return nil, err
	}
	t.Scheme = s
	return t, nil
}

func (t *tracedCore) Write(line uint64, data []byte) deuce.WriteInfo {
	start := time.Now()
	res := t.Scheme.Write(line, data)
	t.writeNs += int64(time.Since(start))
	t.writes++
	return deuce.WriteInfo{BitFlips: res.TotalFlips(), WriteSlots: res.Slots}
}

func (t *tracedCore) Sync() error {
	start := time.Now()
	err := t.Scheme.(core.Durable).Sync()
	t.syncs = append(t.syncs, time.Since(start))
	return err
}

func (t *tracedCore) Close() error { return t.Scheme.(core.Durable).Close() }
