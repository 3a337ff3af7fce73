// Package deuce is a Go implementation of DEUCE (Dual Counter Encryption),
// the write-efficient memory encryption scheme for non-volatile memories
// from Young, Nair and Qureshi, ASPLOS 2015, together with the complete
// simulation stack the paper's evaluation is built on.
//
// The top-level API models an encrypted PCM main memory as a collection of
// 64-byte cache lines. Writes go through a selectable write scheme —
// baseline counter-mode encryption, Flip-N-Write, DEUCE, DynDEUCE,
// Block-Level Encryption, or their combinations — and the library accounts
// for every memory cell the write programs, which is the currency in which
// PCM write energy, bandwidth, and endurance are paid.
//
//	mem, err := deuce.New(deuce.Options{Lines: 1 << 20})
//	if err != nil { ... }
//	info := mem.Write(lineAddr, payload)   // info.BitFlips, info.WriteSlots
//	data := mem.Read(lineAddr)             // transparently decrypted
//
// # Concurrency
//
// A Memory is single-goroutine: one goroutine owns the whole array, and no
// method is safe for concurrent use. This is deliberate — the write schemes
// stage every write through scheme-owned scratch buffers (the zero-
// allocation discipline of DESIGN.md §5), and the per-line encryption
// counters and epoch state mutate on every operation, reads included.
// Concurrent front ends must impose their own discipline on top: either a
// single lock around one Memory or a partition of the line space into
// independently locked regions, each backed by its own Memory instance
// (internal/servefront's sharded single-writer front end, DESIGN.md §12). Either way, every line has
// exactly one writer at a time, which is what keeps a Memory's per-line
// counters, epochs and write accounting exact.
//
// The reproduction harness for the paper's tables and figures lives in
// cmd/deucebench; the workload models, wear leveling, cache hierarchy, and
// timing model are available to examples and tools via the internal
// packages.
package deuce

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"deuce/internal/core"
	"deuce/internal/pcmdev"
	"deuce/internal/wear"
)

// Scheme selects the write scheme of a Memory.
type Scheme string

// The available write schemes. Names follow the paper's figures.
const (
	// PlainDCW is unencrypted memory with Data Comparison Write: the
	// write-cost floor, with no security.
	PlainDCW Scheme = "noencr-dcw"
	// PlainFNW is unencrypted memory with Flip-N-Write.
	PlainFNW Scheme = "noencr-fnw"
	// EncrDCW is whole-line counter-mode encryption, the secure
	// baseline: ~50% of cells program on every write.
	EncrDCW Scheme = "encr-dcw"
	// EncrFNW is the secure baseline with a Flip-N-Write stage (~43%).
	EncrFNW Scheme = "encr-fnw"
	// DEUCE is Dual Counter Encryption, the paper's contribution:
	// secure memory at ~24% of cells programmed per write.
	DEUCE Scheme = "deuce"
	// DEUCEFNW stacks dedicated Flip-N-Write bits under DEUCE (~20%).
	DEUCEFNW Scheme = "deuce-fnw"
	// DynDEUCE morphs between DEUCE and FNW per line within an epoch
	// (~22% with 1 extra metadata bit).
	DynDEUCE Scheme = "dyndeuce"
	// BLE is Block-Level Encryption at 16-byte AES-block granularity.
	BLE Scheme = "ble"
	// BLEDEUCE runs the DEUCE protocol inside each BLE block.
	BLEDEUCE Scheme = "ble-deuce"
	// AddrPad is address-keyed encryption without counters (§7.2): zero
	// write overhead and stolen-DIMM protection, but no defence against
	// bus snooping — pads repeat across writes.
	AddrPad Scheme = "addr-pad"
	// INVMM is i-NVMM-style partial encryption (§7.2): the hot working
	// set stays in plain text until it cools or the system powers down.
	INVMM Scheme = "invmm"
	// SECRET is the zero-word-aware follow-up to DEUCE: zero words store
	// as literal zeros with a flag (free rewrites, zero-ness leaked),
	// non-zero words follow the DEUCE protocol.
	SECRET Scheme = "secret"
)

// Schemes returns all selectable schemes.
func Schemes() []Scheme {
	kinds := core.Kinds()
	out := make([]Scheme, len(kinds))
	for i, k := range kinds {
		out[i] = Scheme(k)
	}
	return out
}

// WearLeveling selects the optional wear leveler: Start-Gap or Security
// Refresh, each with or without Horizontal Wear Leveling.
type WearLeveling int

// Wear-leveling modes.
const (
	// NoWearLeveling maps lines directly to the array.
	NoWearLeveling WearLeveling = iota
	// VerticalWL enables Start-Gap line remapping.
	VerticalWL
	// HorizontalWL additionally rotates each line's bits by an
	// algebraic function of the Start register (the paper's HWL, §5.3).
	HorizontalWL
	// HorizontalWLHashed uses the per-line hashed rotation of the
	// paper's footnote 2, hardening HWL against adaptive write
	// patterns.
	HorizontalWLHashed
	// SecurityRefreshWL remaps lines with Security Refresh (the other
	// VWL algorithm of §5.2): XOR keys drawn at random each sweep.
	// Requires a power-of-two line count.
	SecurityRefreshWL
	// SecurityRefreshHWL adds the hashed horizontal rotation on top of
	// Security Refresh.
	SecurityRefreshHWL
)

// Backend selects where a Memory's durable regions (cell array and
// encryption counters) are stored. See the package Durability notes in
// README.md and DESIGN.md §13.
type Backend string

// The available backends.
const (
	// MemBackend keeps all state in RAM (the default). Sync and Close
	// are free no-ops; nothing survives process exit except through
	// Persist.
	MemBackend Backend = "mem"
	// FileBackend stores each region in one mmap-backed file under
	// Options.Dir (array.pg, counters.pg), each with a redo journal
	// beside it (array.jnl, counters.jnl) that Sync appends the changed
	// bytes to. Contents survive Close and are picked up again by a
	// Memory reopened on the same directory.
	FileBackend Backend = "file"
	// DirBackend shards the cell array over a directory of mmap-backed
	// files (Options.Dir/array/shard-*.pg), for arrays far larger than
	// RAM; counters stay in a single file. Both regions are journaled
	// as under FileBackend (array.jnl, counters.jnl).
	DirBackend Backend = "dir"
)

// Backends returns all selectable backends.
func Backends() []Backend { return []Backend{MemBackend, FileBackend, DirBackend} }

// Options configures a Memory. The zero value of every field selects the
// paper's defaults.
type Options struct {
	// Lines is the number of 64-byte lines. Required.
	Lines int
	// Scheme selects the write scheme; empty means DEUCE.
	Scheme Scheme
	// Key is the 16-byte AES-128 key for encrypted schemes; nil selects
	// a fixed development key.
	Key []byte
	// EpochInterval is the DEUCE epoch in writes (power of two);
	// 0 means 32.
	EpochInterval int
	// WordBytes is the tracking granularity (1, 2, 4 or 8); 0 means 2.
	WordBytes int
	// WearLeveling optionally remaps lines under a Start-Gap or
	// Security Refresh leveler.
	WearLeveling WearLeveling
	// GapWriteInterval is the wear leveler's psi (writes per Start-Gap
	// gap move or Security Refresh pair swap); 0 means 100.
	GapWriteInterval int
	// ExcludeGapMoveWear leaves the wear leveler's own line copies (gap
	// moves, pair swaps) out of the wear and flip accounting. At realistic scale (psi=100 over
	// billions of writes) gap moves are <1% of cell programs; short
	// simulations that shrink psi to exercise wear leveling should set
	// this so the copies do not drown the signal being measured.
	ExcludeGapMoveWear bool
	// Backend selects durable storage for the cell array and counters;
	// empty means MemBackend. FileBackend and DirBackend require Dir and
	// are mutually exclusive with WearLeveling (wear-leveler remap
	// registers are volatile controller state a backend cannot carry).
	// Results are bit-identical across backends — the restart
	// differential suite pins this.
	Backend Backend
	// Dir is the directory holding FileBackend/DirBackend state. Reusing
	// a directory reopens the stored cells and counters; pair it with
	// RestoreState to also recover scheme controller state (see
	// PersistToFile).
	Dir string
	// DirShards is the DirBackend shard-file count; 0 means
	// backend.DefaultDirShards. Ignored after creation — the directory's
	// manifest pins the split.
	DirShards int
}

// WriteInfo reports the cost of one line write.
type WriteInfo struct {
	// BitFlips is the number of memory cells the write programmed,
	// including scheme metadata cells.
	BitFlips int
	// WriteSlots is the number of 128-bit write slots consumed (each
	// takes 150 ns and a share of the write current budget).
	WriteSlots int
}

// Stats aggregates memory activity.
type Stats struct {
	// Writes is the number of line writes.
	Writes uint64
	// Reads is the number of line reads.
	Reads uint64
	// BitFlips is the total cells programmed.
	BitFlips uint64
	// AvgFlipsPerWrite is BitFlips/Writes.
	AvgFlipsPerWrite float64
	// FlipFraction is AvgFlipsPerWrite over the 512 data cells of a
	// line — the paper's figure of merit (50% for the encrypted
	// baseline, ~24% for DEUCE).
	FlipFraction float64
	// WriteSlots is the total 128-bit write slots consumed. Kept as an
	// exact integer (like Writes and BitFlips) so sharded front ends can
	// merge per-shard stats bit-for-bit and re-derive the averages.
	WriteSlots uint64
	// AvgWriteSlots is the mean 128-bit write slots per write.
	AvgWriteSlots float64
	// MetadataBitsPerLine is the scheme's storage overhead (Table 3).
	MetadataBitsPerLine int
}

// Memory is an encrypted (or plain) PCM main memory simulation. It is
// single-goroutine — see the package comment's Concurrency section.
type Memory struct {
	scheme core.Scheme
	opts   Options
}

// New constructs a Memory.
func New(opts Options) (*Memory, error) {
	if opts.Lines <= 0 {
		return nil, fmt.Errorf("deuce: Options.Lines must be positive, got %d", opts.Lines)
	}
	kind := core.Kind(opts.Scheme)
	if opts.Scheme == "" {
		kind = core.KindDeuce
	}
	params := core.Params{
		Lines:         opts.Lines,
		Key:           opts.Key,
		EpochInterval: opts.EpochInterval,
		WordBytes:     opts.WordBytes,
	}
	switch opts.Backend {
	case "", MemBackend:
	case FileBackend, DirBackend:
		if opts.Dir == "" {
			return nil, fmt.Errorf("deuce: backend %q requires Options.Dir", opts.Backend)
		}
		if opts.WearLeveling != NoWearLeveling {
			return nil, fmt.Errorf("deuce: backend %q cannot combine with wear leveling (remap registers are volatile controller state)", opts.Backend)
		}
		params.MakeBackend = core.DirBackendMaker(opts.Dir, opts.Backend == DirBackend, opts.DirShards)
	default:
		return nil, fmt.Errorf("deuce: unknown backend %q (want %q, %q or %q)", opts.Backend, MemBackend, FileBackend, DirBackend)
	}
	if opts.WearLeveling != NoWearLeveling {
		mode, err := wearMode(opts.WearLeveling)
		if err != nil {
			return nil, err
		}
		wcfg := wear.StartGapConfig{Mode: mode, Psi: opts.GapWriteInterval, FreeGapMoves: opts.ExcludeGapMoveWear}
		sr := opts.WearLeveling == SecurityRefreshWL || opts.WearLeveling == SecurityRefreshHWL
		params.MakeArray = func(cfg pcmdev.Config) (pcmdev.Array, error) {
			if sr {
				s, err := wear.NewSecurityRefresh(cfg, wcfg, 1)
				if err != nil {
					return nil, err
				}
				return s.Device(), nil
			}
			s, err := wear.NewStartGap(cfg, wcfg)
			if err != nil {
				return nil, err
			}
			return s.Device(), nil
		}
	}
	s, err := core.New(kind, params)
	if err != nil {
		return nil, err
	}
	return &Memory{scheme: s, opts: opts}, nil
}

func wearMode(w WearLeveling) (wear.Mode, error) {
	switch w {
	case VerticalWL, SecurityRefreshWL:
		return wear.VWLOnly, nil
	case HorizontalWL:
		return wear.HWL, nil
	case HorizontalWLHashed, SecurityRefreshHWL:
		return wear.HWLHashed, nil
	default:
		return 0, fmt.Errorf("deuce: unknown wear-leveling mode %d", int(w))
	}
}

// MustNew is New for options known to be valid.
func MustNew(opts Options) *Memory {
	m, err := New(opts)
	if err != nil {
		panic(err)
	}
	return m
}

// Lines returns the memory capacity in lines.
func (m *Memory) Lines() int { return m.opts.Lines }

// SchemeName returns the active scheme's display name.
func (m *Memory) SchemeName() string { return m.scheme.Name() }

// Write stores a 64-byte plaintext line and returns its exact cost.
func (m *Memory) Write(line uint64, data []byte) WriteInfo {
	res := m.scheme.Write(line, data)
	return WriteInfo{BitFlips: res.TotalFlips(), WriteSlots: res.Slots}
}

// Read returns the current plaintext of a line in a fresh slice: ReadInto
// into a new 64-byte buffer.
func (m *Memory) Read(line uint64) []byte {
	dst := make([]byte, m.scheme.Device().Config().LineBytes)
	m.scheme.ReadInto(line, dst)
	return dst
}

// ReadInto decrypts a line's current plaintext into dst, which must be 64
// bytes (it panics otherwise). It is Read without the allocation: with or
// without wear leveling the whole read path — device copy-out, pad
// generation, decryption — runs through preallocated scheme scratch, which
// is what lets serving hot paths (internal/kvstore) read at zero
// allocations per operation.
func (m *Memory) ReadInto(line uint64, dst []byte) { m.scheme.ReadInto(line, dst) }

// LineBits returns the number of data cells per line (512 for the 64-byte
// lines every scheme models) — the denominator of Stats.FlipFraction.
func (m *Memory) LineBits() int { return m.scheme.Device().Config().LineBits() }

// Install places initial content into a line without write-cost accounting
// (initial page placement). Must precede any Write/Read of that line.
func (m *Memory) Install(line uint64, data []byte) { m.scheme.Install(line, data) }

// Stats returns an activity snapshot.
func (m *Memory) Stats() Stats {
	st := m.scheme.Device().Stats()
	lineBits := float64(m.scheme.Device().Config().LineBits())
	return Stats{
		Writes:              st.Writes,
		Reads:               st.Reads,
		BitFlips:            st.TotalFlips(),
		AvgFlipsPerWrite:    st.AvgFlipsPerWrite(),
		FlipFraction:        st.AvgFlipsPerWrite() / lineBits,
		WriteSlots:          st.SlotsUsed,
		AvgWriteSlots:       st.AvgSlotsPerWrite(),
		MetadataBitsPerLine: m.scheme.OverheadBits(),
	}
}

// ResetStats clears the activity counters, keeping memory contents.
func (m *Memory) ResetStats() { m.scheme.Device().ResetStats() }

// WearProfile returns the per-bit-position program counts (data cells first,
// then metadata cells), for endurance analysis.
func (m *Memory) WearProfile() []uint64 { return m.scheme.Device().PositionWrites() }

// Persist writes the memory's durable state — cells, metadata, and the
// non-volatile encryption counters — to w, modeling a clean power-down.
// i-NVMM memories encrypt their hot set first (the scheme's power-down
// obligation). Wear-leveled memories are not persistable (their remapping
// registers are controller state outside this format) and return an error.
func (m *Memory) Persist(w io.Writer) error {
	p, ok := m.scheme.(core.Persistent)
	if !ok {
		return fmt.Errorf("deuce: scheme %s does not support persistence", m.scheme.Name())
	}
	return p.SaveState(w)
}

// RestoreState loads state written by Persist into this memory. The
// memory must have been constructed with identical Options (scheme, key,
// size, epoch, word size); mismatches are rejected with an error naming
// what differs.
func (m *Memory) RestoreState(r io.Reader) error {
	p, ok := m.scheme.(core.Persistent)
	if !ok {
		return fmt.Errorf("deuce: scheme %s does not support persistence", m.scheme.Name())
	}
	return p.LoadState(r)
}

// Sync flushes the cell array and counter regions into their backends'
// persistence domain. A free no-op on the in-memory backend. After Sync
// returns, every write issued so far survives a crash of the process (the
// scheme's controller state — epoch registers, the installed-line set —
// does not; snapshot it with Persist/PersistToFile).
func (m *Memory) Sync() error {
	d, ok := m.scheme.(core.Durable)
	if !ok {
		return nil
	}
	return d.Sync()
}

// Close releases backend resources (file handles, mappings) without an
// implicit Sync. A closed Memory must not be used again.
func (m *Memory) Close() error {
	d, ok := m.scheme.(core.Durable)
	if !ok {
		return nil
	}
	return d.Close()
}

// PersistToFile writes the Persist snapshot to path atomically: the image
// lands in a temporary file in the same directory, is fsynced, and only
// then renamed over path — so a crash mid-persist leaves any previous
// snapshot at path intact and readable.
func (m *Memory) PersistToFile(path string) error {
	return writeFileAtomic(path, m.Persist)
}

// RestoreFromFile loads a snapshot written by PersistToFile (or any
// Persist output saved to a file).
func (m *Memory) RestoreFromFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("deuce: %w", err)
	}
	defer f.Close()
	return m.RestoreState(f)
}

// writeFileAtomic streams write's output into a temp file next to path and
// renames it into place only after a successful write+fsync, then fsyncs
// the directory so the rename itself is durable: once it returns, a crash
// cannot bring back the previous file. On an error before the rename the
// temp file is removed and path is untouched.
func writeFileAtomic(path string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("deuce: %w", err)
	}
	tmp := f.Name()
	fail := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("deuce: %w", err)
	}
	if err := write(f); err != nil {
		return fail(err)
	}
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("deuce: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("deuce: %w", err)
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory, so an entry renamed into it is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("deuce: %w", err)
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("deuce: sync dir %s: %w", dir, err)
	}
	return nil
}
