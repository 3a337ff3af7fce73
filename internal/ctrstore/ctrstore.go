// Package ctrstore models the per-line write counters used by counter-mode
// memory encryption (paper §2.2) and the per-block counters used by
// Block-Level Encryption (paper §7.1, ref [18]).
//
// Counters are stored in plain text alongside the memory (§2.4: knowledge of
// the counter does not help an attacker who lacks the key). The paper
// provisions 28 bits per line; on overflow the memory controller must
// re-key or re-encrypt the line, which this package surfaces as an
// Overflowed flag so schemes can force a full re-encryption epoch.
package ctrstore

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"deuce/internal/backend"
	"deuce/internal/bitutil"
)

// DefaultBits is the paper's per-line counter width (Table 1 discussion).
const DefaultBits = 28

// Store holds one write counter per line (or per block when constructed
// with NewBlock).
type Store struct {
	bits     uint
	mask     uint64
	counters []uint64

	overflows uint64

	// Durable-backend state (NewOnBackend); all nil for memory-only
	// stores. counters above stays the working copy — the controller's
	// counter cache — and dirty tracks which backend pages Sync must
	// write back.
	be      backend.Backend
	dirty   *bitutil.Vector
	pageBuf []byte
}

// New returns a Store with one counter of the given bit width per line.
// bits must be in [1, 56] (the OTP tweak reserves 56 bits for the counter).
func New(lines int, bits uint) (*Store, error) {
	if lines <= 0 {
		return nil, fmt.Errorf("ctrstore: lines must be positive, got %d", lines)
	}
	if bits == 0 || bits > 56 {
		return nil, fmt.Errorf("ctrstore: counter width must be in [1,56], got %d", bits)
	}
	return &Store{
		bits:     bits,
		mask:     (uint64(1) << bits) - 1,
		counters: make([]uint64, lines),
	}, nil
}

// MustNew is New for arguments known to be valid.
func MustNew(lines int, bits uint) *Store {
	s, err := New(lines, bits)
	if err != nil {
		panic(err)
	}
	return s
}

// NewBlock returns a Store with blocksPerLine counters per line, as used by
// BLE (four 16-byte blocks per 64-byte line). Counter i of line l is indexed
// internally as l*blocksPerLine+i; use BlockGet/BlockIncrement.
func NewBlock(lines, blocksPerLine int, bits uint) (*Store, error) {
	if blocksPerLine <= 0 {
		return nil, fmt.Errorf("ctrstore: blocksPerLine must be positive, got %d", blocksPerLine)
	}
	return New(lines*blocksPerLine, bits)
}

// Bits returns the configured counter width.
func (s *Store) Bits() uint { return s.bits }

// Len returns the number of counters.
func (s *Store) Len() int { return len(s.counters) }

// Get returns the current counter value for the line.
func (s *Store) Get(line uint64) uint64 {
	return s.counters[line]
}

// Increment advances the line counter by one, wrapping at the configured
// width. It returns the new value and whether the counter wrapped (which
// obliges the caller to fully re-encrypt the line to preserve pad
// uniqueness; with 28-bit counters this is rare but must be handled).
func (s *Store) Increment(line uint64) (val uint64, wrapped bool) {
	v := (s.counters[line] + 1) & s.mask
	s.counters[line] = v
	s.markDirty(line)
	if v == 0 {
		s.overflows++
		return 0, true
	}
	return v, false
}

// Set forces a counter value (used by tests and by re-keying logic).
func (s *Store) Set(line uint64, v uint64) {
	s.counters[line] = v & s.mask
	s.markDirty(line)
}

// Overflows returns how many counter wrap-arounds have occurred.
func (s *Store) Overflows() uint64 { return s.overflows }

// BlockIndex converts (line, block) into a flat counter index for stores
// created with NewBlock.
func BlockIndex(line uint64, blocksPerLine int, block int) uint64 {
	return line*uint64(blocksPerLine) + uint64(block)
}

// StorageBits returns the total plain-text counter storage in bits.
func (s *Store) StorageBits() uint64 {
	return uint64(len(s.counters)) * uint64(s.bits)
}

// Serialize writes the counter values to w. Counters are part of the
// memory's persistent state: they live in (plain-text) non-volatile
// storage and must survive power-down, or every pad would repeat from
// zero on the next boot.
func (s *Store) Serialize(w io.Writer) error {
	bw := bufio.NewWriter(w)
	hdr := []uint64{uint64(len(s.counters)), uint64(s.bits)}
	for _, v := range hdr {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return fmt.Errorf("ctrstore: %w", err)
		}
	}
	for _, c := range s.counters {
		if err := binary.Write(bw, binary.LittleEndian, c); err != nil {
			return fmt.Errorf("ctrstore: %w", err)
		}
	}
	return bw.Flush()
}

// Restore loads counters written by Serialize; the geometry must match.
// It is Stage followed by the install, so a failed Restore leaves every
// counter as it was.
func (s *Store) Restore(r io.Reader) error {
	install, err := s.Stage(r)
	if err != nil {
		return err
	}
	install()
	return nil
}

// Stage decodes a snapshot written by Serialize without touching the
// store and returns the function that installs it, so a caller restoring
// several pieces of state can install none of them unless all parsed.
// Every failure is typed: backend.ErrGeometry for a snapshot of another
// counter count or width, backend.ErrCorrupt for a counter wider than the
// width (installing it would let a later Increment roll the counter back
// and reuse a pad) and backend.ErrTruncated for a snapshot that ends (or
// fails to read) early.
func (s *Store) Stage(r io.Reader) (install func(), err error) {
	br := bufio.NewReader(r)
	var hdr [2]uint64 // counters, width
	if err := binary.Read(br, binary.LittleEndian, &hdr); err != nil {
		return nil, fmt.Errorf("ctrstore: reading header: %w: %w", backend.ErrTruncated, err)
	}
	if hdr != [2]uint64{uint64(len(s.counters)), uint64(s.bits)} {
		return nil, fmt.Errorf("ctrstore: geometry mismatch: snapshot %dx%db, store %dx%db: %w",
			hdr[0], hdr[1], len(s.counters), s.bits, backend.ErrGeometry)
	}
	raw := make([]byte, 8*len(s.counters))
	if n, err := io.ReadFull(br, raw); err != nil {
		return nil, fmt.Errorf("ctrstore: snapshot holds %d of %d counters: %w: %w", n/8, len(s.counters), backend.ErrTruncated, err)
	}
	counters := make([]uint64, len(s.counters))
	for i := range counters {
		if counters[i] = binary.LittleEndian.Uint64(raw[8*i:]); counters[i] > s.mask {
			return nil, fmt.Errorf("ctrstore: counter %d is %d, wider than %d bits: %w", i, counters[i], s.bits, backend.ErrCorrupt)
		}
	}
	return func() {
		copy(s.counters, counters)
		s.markAllDirty()
	}, nil
}
