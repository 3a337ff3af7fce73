package exp

import (
	"sync/atomic"

	"deuce/internal/obs"
)

// warmReuseOff disables the per-cell result caches when set, so every
// cell executes; cells still replay the recorded stream. Only tests set
// it: the warm differential suites compare the live reference against
// cells computed with the caches off as well as on. The zero value means
// enabled.
var warmReuseOff atomic.Bool

// warmReuseEnabled reports whether the per-cell result caches are active.
func warmReuseEnabled() bool { return !warmReuseOff.Load() }

// warmups counts warmup replays actually executed: one per cell run.
var warmups atomic.Int64

// ReuseStats is a point-in-time snapshot of warm-state reuse and
// experiment-cache effectiveness, for reporting (deucereport) and metrics.
type ReuseStats struct {
	// WarmForks is always zero: every cell warms its own scheme from the
	// recorded stream. It stays because bench's gate workload still
	// reports it as exp.warm_forks.
	WarmForks int64
	// ColdWarmups is the number of warmup replays executed: one per cell
	// actually run.
	ColdWarmups int64
	// CacheHits / CacheMisses are the process-wide memo's counters: cell
	// results and recorded streams are its only entries.
	CacheHits   int64
	CacheMisses int64
}

// Reuse reports warm-state reuse effectiveness since process start (or the
// last ResetReuse).
func Reuse() ReuseStats {
	hits, misses := sharedCache.Stats()
	return ReuseStats{
		ColdWarmups: warmups.Load(),
		CacheHits:   hits,
		CacheMisses: misses,
	}
}

// ResetReuse zeroes the warmup counter. The experiment cache's own
// counters reset with ResetCache.
func ResetReuse() {
	warmups.Store(0)
}

// RecordReuseMetrics publishes reuse effectiveness into a metrics
// registry, alongside whatever run metrics the caller collected.
func RecordReuseMetrics(reg *obs.Registry) {
	r := Reuse()
	reg.Gauge("reuse_cold_warmups").Set(float64(r.ColdWarmups))
	reg.Gauge("reuse_cache_hits").Set(float64(r.CacheHits))
	reg.Gauge("reuse_cache_misses").Set(float64(r.CacheMisses))
}
