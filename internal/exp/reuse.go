package exp

import (
	"sync/atomic"

	"deuce/internal/obs"
)

// warmReuseOff disables the warm-state fast paths (the per-cell result
// caches and the warm-fork path that skips per-cell warmup replay) when
// set; cells still replay the recorded stream. Only tests set it: it is
// the cold path the fork bit-identity suites check beside the warm-forked
// one. The zero value means enabled.
var warmReuseOff atomic.Bool

// warmReuseEnabled reports whether the warm-state fast paths are active.
func warmReuseEnabled() bool { return !warmReuseOff.Load() }

// warmForks counts grid cells served by forking a cached warmed state
// instead of replaying their warmup; coldWarmups counts warmup loops
// actually executed (cold cells plus one per cached warm state built).
var warmForks, coldWarmups atomic.Int64

// ReuseStats is a point-in-time snapshot of warm-state reuse and
// experiment-cache effectiveness, for reporting (deucereport) and metrics.
type ReuseStats struct {
	// WarmForks is the number of cells that skipped warmup by forking a
	// cached warmed scheme.
	WarmForks int64
	// ColdWarmups is the number of warmup loops executed for real: cells
	// that could not fork plus one per warmed state built and cached.
	ColdWarmups int64
	// CacheHits / CacheMisses are the process-wide experiment cache's
	// counters (grids, tables, cells and warm states all share it).
	CacheHits   int64
	CacheMisses int64
}

// Reuse reports warm-state reuse effectiveness since process start (or the
// last ResetReuse).
func Reuse() ReuseStats {
	hits, misses := sharedCache.Stats()
	return ReuseStats{
		WarmForks:   warmForks.Load(),
		ColdWarmups: coldWarmups.Load(),
		CacheHits:   hits,
		CacheMisses: misses,
	}
}

// ResetReuse zeroes the warm-fork/cold-warmup counters. The experiment
// cache's own counters reset with ResetCache.
func ResetReuse() {
	warmForks.Store(0)
	coldWarmups.Store(0)
}

// RecordReuseMetrics publishes reuse effectiveness into a metrics
// registry, alongside whatever run metrics the caller collected.
func RecordReuseMetrics(reg *obs.Registry) {
	r := Reuse()
	reg.Gauge("reuse_warm_forks").Set(float64(r.WarmForks))
	reg.Gauge("reuse_cold_warmups").Set(float64(r.ColdWarmups))
	reg.Gauge("reuse_cache_hits").Set(float64(r.CacheHits))
	reg.Gauge("reuse_cache_misses").Set(float64(r.CacheMisses))
}
