package core

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
	if err := b.dev.Sync(); err != nil {
		return err
	}
	return b.ctrs.Sync()
}

// Close implements Durable: it releases the array's storage, then the
// counters', and reports the first error.
func (b *base) Close() error {
	first := b.dev.Close()
	if err := b.ctrs.Close(); err != nil && first == nil {
		first = err
	}
	return first
}
