package exp

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"deuce/internal/core"
	"deuce/internal/obs/span"
)

// GridCache is a single-flight memo. The package keeps one, sharedCache,
// holding two kinds of entry: cell results (flip, perf and wear cells,
// keyed as the planner keys its cell nodes) and recorded streams (see
// warm.go). Tables are assembled from cells and are not memoized. Figures
// share cells (Fig16 and Fig17 are two views of one 48-cell timed sweep),
// and the fidelity gate and the report command walk the expectation
// table, yet each cell executes once per process however many tables
// read it.
//
// Entries are single-flight: the first caller of a key computes, and
// concurrent callers of the same key block on that computation instead of
// duplicating it (sync.Once per entry). Results, including errors, are
// cached until dropped — every cached computation is deterministic in its
// key, so recomputing cannot change the outcome.
//
// Cache-key rules (see DESIGN.md §8): a cell key encodes every input that
// can change the result — workload, scheme, core.Params and the
// result-affecting scalar fields of RunConfig after defaulting — and
// nothing else. Observability hooks (Trace, Heatmap, Metrics, Progress,
// Spans) never enter a key: the cell executor clears the single-writer
// hooks before fanning out, and Progress and Spans only narrate. Inputs
// that cannot be canonically encoded (a non-nil Params.MakeArray,
// Params.MakeBackend or Params.Trace) make the cell unmemoizable: it runs
// every time rather than risk a false hit.
type GridCache struct {
	mu      sync.Mutex
	entries map[string]*cacheEntry
	hits    atomic.Int64
	misses  atomic.Int64
}

type cacheEntry struct {
	once sync.Once
	val  interface{}
	err  error
}

// NewGridCache returns an empty cache.
func NewGridCache() *GridCache {
	return &GridCache{entries: make(map[string]*cacheEntry)}
}

// Do returns the cached result for key, computing it via compute on the
// first call. Concurrent callers with the same key block until the first
// caller's compute returns, then share its result.
func (c *GridCache) Do(key string, compute func() (interface{}, error)) (interface{}, error) {
	v, err, _ := c.DoObserved(key, compute)
	return v, err
}

// DoObserved is Do plus a report of whether this call performed the
// computation itself; computed is false when the result was served from
// the cache or by joining a computation already in flight (the
// single-flight wait).
func (c *GridCache) DoObserved(key string, compute func() (interface{}, error)) (v interface{}, err error, computed bool) {
	c.mu.Lock()
	e, ok := c.entries[key]
	if !ok {
		e = &cacheEntry{}
		c.entries[key] = e
	}
	c.mu.Unlock()
	e.once.Do(func() {
		computed = true
		e.val, e.err = compute()
	})
	if computed {
		c.misses.Add(1)
	} else {
		c.hits.Add(1)
	}
	return e.val, e.err, computed
}

// Stats reports cache hits and misses since construction (or Reset).
func (c *GridCache) Stats() (hits, misses int64) {
	return c.hits.Load(), c.misses.Load()
}

// Reset drops every entry and zeroes the counters. In-flight computations
// finish against their old entries; only future Do calls see the empty
// cache.
func (c *GridCache) Reset() {
	c.mu.Lock()
	c.entries = make(map[string]*cacheEntry)
	c.mu.Unlock()
	c.hits.Store(0)
	c.misses.Store(0)
}

// forget drops every entry whose key matches. In-flight computations
// finish against their old entries, as with Reset.
func (c *GridCache) forget(match func(key string) bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for k := range c.entries {
		if match(k) {
			delete(c.entries, k)
		}
	}
}

// sharedCache is the process-wide memo of cell results and recorded
// streams. Cells are deterministic in their keys, so sharing across
// callers is safe; tests that count executions call ResetCache first.
var sharedCache = NewGridCache()

// memoCell runs one cell through the shared memo: measure executes on the
// first request for the cell's key, built by key from the params' key, and
// later requests are served its result. A cell whose params have no
// canonical key, or whose config carries a single-run hook (a served
// result records nothing), runs every time, as every cell does with the
// memo switched off (warmReuseOff).
func memoCell[R any](rc RunConfig, params core.Params, kind string, key func(pk string) string, measure func() (R, error)) (R, error) {
	pk, ok := paramsKey(params)
	if !ok || !warmReuseEnabled() || rc.Trace != nil || rc.Heatmap != nil || rc.Metrics != nil {
		return measure()
	}
	v, err := cachedDo(rc, kind, key(pk), func() (interface{}, error) { return measure() })
	if err != nil {
		var zero R
		return zero, err
	}
	return v.(R), nil
}

// cachedDo routes a cell through the shared memo and accounts for the
// outcome against the run's observability hooks: an executed cell records
// its own spans inside compute, while a served one — including a
// single-flight join on an in-flight computation — records a "cache-hit"
// span covering the wait and ticks the progress reporter's reused
// counter, so ETAs are computed from the executed-cell rate rather than
// the (much faster) served completions.
func cachedDo(rc RunConfig, kind, key string, compute func() (interface{}, error)) (interface{}, error) {
	start := time.Now()
	v, err, computed := sharedCache.DoObserved(key, compute)
	if computed {
		return v, err
	}
	if rc.Progress != nil {
		rc.Progress.AddReused(1)
	}
	if rc.Spans != nil {
		sp := rc.Spans.StartAt(rc.SpanParent, "cache-hit", start,
			span.Str("kind", kind), span.Str("key", key))
		sp.Annotate(span.Int("wait_ns", time.Since(start).Nanoseconds()))
		sp.EndAt(time.Since(start))
	}
	return v, err
}

// ResetCache empties the process-wide memo of cells and recorded streams.
// Tests and benchmarks that assert on execution counts use it to force
// recomputation.
func ResetCache() { sharedCache.Reset() }

// CacheStats reports hits and misses of the process-wide memo.
func CacheStats() (hits, misses int64) { return sharedCache.Stats() }

// perfRuns and flipRuns count RunPerf / RunFlips invocations
// process-wide, cache hits excluded (a served cell never re-executes).
var perfRuns, flipRuns atomic.Int64

// RunPerfCalls returns how many timed RunPerf executions this process has
// performed. It exists for cell-count regression tests: the gate over
// fig16+fig17 must execute their 48 shared cells exactly once.
func RunPerfCalls() int64 { return perfRuns.Load() }

// RunFlipsCalls returns how many RunFlips executions this process has
// performed; the flip-cell counterpart of RunPerfCalls. A wear cell
// replays its trace through RunFlips, so it counts here.
func RunFlipsCalls() int64 { return flipRuns.Load() }

// key renders the result-affecting scalar fields of the RunConfig, after
// defaulting, as a canonical cache-key fragment. The observability hooks
// deliberately do not appear: they never change measured values.
func (rc RunConfig) key() string {
	rc.setDefaults()
	return fmt.Sprintf("wb=%d warm=%d lines=%d seed=%d pause=%t rdlat=%g ccb=%d",
		rc.Writebacks, rc.Warmup, rc.Lines, rc.Seed,
		rc.WritePausing, rc.ReadLatencyNs, rc.CounterCacheBlocks)
}

// paramsKey canonically encodes the result-affecting fields of
// core.Params. The second return is false when the params carry inputs
// with no canonical encoding (MakeArray, MakeBackend, Trace) — such a
// configuration must not be memoized.
//
// Params are canonicalized first, so the zero value and an explicit
// spelling of the defaults share one key — that equivalence is what lets
// cells recur across figures (e.g. Figure 8's 2-byte DEUCE and Figure 10's
// default DEUCE are the same cell).
//
// The AES key enters as a short SHA-256 digest, never as raw material:
// cache keys travel into logs, dry-run plans and recorded run metadata,
// none of which may leak a key a caller supplied. Eight bytes of digest
// are plenty for cache discrimination (keys are not adversarial inputs
// here) and are unambiguously not the key itself.
func paramsKey(p core.Params) (string, bool) {
	if p.MakeArray != nil || p.MakeBackend != nil || p.Trace != nil {
		return "", false
	}
	p = p.Canonical()
	keyDigest := sha256.Sum256(p.Key)
	return fmt.Sprintf("lines=%d lb=%d keysha=%s epoch=%d word=%d ctr=%d wear=%t hot=%d",
		p.Lines, p.LineBytes, hex.EncodeToString(keyDigest[:8]), p.EpochInterval,
		p.WordBytes, p.CounterBits, p.TrackPerLineWear, p.HotCapacity), true
}
