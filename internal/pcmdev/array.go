package pcmdev

// Array is the contract between write schemes and the storage they target.
// *Device implements it, with or without a wear leveler's Remap or an
// Observer: Start-Gap and Security Refresh remapping, Horizontal Wear
// Leveling rotation and integrity checks happen inside the device while
// schemes stay oblivious — exactly the hardware layering the paper
// describes (§5.3: "the memory is equipped with shifters"). Tests put
// reference twins behind it.
type Array interface {
	// Write stores data and metadata with differential-write accounting.
	Write(line uint64, data, meta []byte) WriteResult
	// WriteTracked is DEUCE's write: the tracked-word rule applied to the
	// stored line, then Write's accounting (tracked.go).
	WriteTracked(line uint64, pt, padL, padT []byte, wordBytes int, reset bool) WriteResult
	// Peek returns copies of the stored data and metadata, without
	// read-statistics side effects.
	Peek(line uint64) (data, meta []byte)
	// PeekInto is Peek into caller-owned buffers, without allocating.
	// data must be LineBytes long and meta ⌈MetaBits/8⌉ bytes (nil when
	// the array has no metadata).
	PeekInto(line uint64, data, meta []byte)
	// ReadInto is the read path: PeekInto's copy, counted as one device
	// read. Buffer requirements are PeekInto's.
	ReadInto(line uint64, data, meta []byte)
	// Load stores without cost accounting (initial placement).
	Load(line uint64, data, meta []byte)
	// Config reports the logical geometry visible to the caller.
	Config() Config
	// Stats returns device activity counters.
	Stats() Stats
	// ResetStats clears counters and wear profiles, keeping contents.
	ResetStats()
	// PositionWrites returns per-bit-position program counts.
	PositionWrites() []uint64
	// LineWrites returns per-physical-line write counts — the profile the
	// wear heatmap (internal/obs) snapshots. Wrappers that remap logical
	// to physical lines report the physical distribution, which is the
	// one wear leveling exists to flatten.
	LineWrites() []uint64
	// Sync flushes the cells into the storage's persistence domain.
	Sync() error
	// Close releases the storage without an implicit Sync.
	Close() error
}

var _ Array = (*Device)(nil)
