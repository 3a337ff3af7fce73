package core

import "deuce/internal/pcmdev"

// Durable is the flush/release contract every scheme in this package
// implements (via the shared base): Sync pushes the array and counter
// regions into their backends' persistence domain, Close releases them.
// For memory-backed schemes both are free no-ops, so callers can treat
// every Memory uniformly.
type Durable interface {
	// Sync flushes array cells and counters into the persistence domain.
	Sync() error
	// Close releases backend resources without an implicit Sync.
	Close() error
}

// Sync implements Durable. Counters flush after cells: a crash between the
// two leaves durable data with stale counters — exactly the tear the
// counter-recovery drill (internal/exp) detects — never fresh counters
// over stale data, which would decrypt garbage silently.
func (b *base) Sync() error {
	if d, ok := b.dev.(*pcmdev.Device); ok {
		if err := d.Sync(); err != nil {
			return err
		}
	}
	return b.ctrs.Sync()
}

// Close implements Durable. Wear-leveled (remapped) devices live in RAM,
// so their Sync and Close are no-ops; wrapped arrays (integrity guards,
// probes) hold a bare in-memory device underneath and have nothing to
// release.
func (b *base) Close() error {
	var first error
	if d, ok := b.dev.(*pcmdev.Device); ok {
		first = d.Close()
	}
	if err := b.ctrs.Close(); err != nil && first == nil {
		first = err
	}
	return first
}
