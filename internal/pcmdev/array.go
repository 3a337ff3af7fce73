package pcmdev

// Array is the contract between write schemes and the storage they target.
// *Device implements it directly, with or without a wear leveler's Remap:
// Start-Gap and Security Refresh remapping and Horizontal Wear Leveling
// rotation happen inside the device while schemes stay oblivious — exactly
// the hardware layering the paper describes (§5.3: "the memory is equipped
// with shifters"). Wrappers such as internal/integrity's guard implement it
// over a Device.
type Array interface {
	// Write stores data and metadata with differential-write accounting.
	Write(line uint64, data, meta []byte) WriteResult
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
}

var _ Array = (*Device)(nil)
