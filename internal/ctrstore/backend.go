package ctrstore

import (
	"encoding/binary"
	"fmt"

	"deuce/internal/backend"
	"deuce/internal/bitutil"
)

// PageBytes is the backend page size counter stores use: counters are
// packed 8 bytes little-endian each, PageBytes/8 per page.
const PageBytes = 4096

// countersPerPage is how many packed counters one backend page holds.
const countersPerPage = PageBytes / 8

// BackendPages returns the page count a backend needs to hold n counters
// (one counter per line, or lines×blocksPerLine for block stores).
func BackendPages(counters int) int {
	return (counters + countersPerPage - 1) / countersPerPage
}

// NewOnBackend returns a Store whose counters are durable in be: the
// working values live in RAM (the controller's counter cache — Get and
// Increment stay O(1) memory operations), dirty pages are written back and
// flushed by Sync. Existing backend contents are loaded, so reopening a
// file backend resumes every counter where the last Sync left it. The
// backend geometry must be BackendPages(counters) pages of PageBytes each.
// A persisted counter wider than bits is backend.ErrCorrupt: truncating it
// would roll the counter back and a later Increment would reuse a pad.
func NewOnBackend(be backend.Backend, counters int, bits uint) (*Store, error) {
	s, err := New(counters, bits)
	if err != nil {
		return nil, err
	}
	wantPages := BackendPages(counters)
	if be.Pages() != wantPages || be.PageSize() != PageBytes {
		return nil, fmt.Errorf("ctrstore: backend holds %d×%dB pages, %d counters need %d×%dB: %w",
			be.Pages(), be.PageSize(), counters, wantPages, PageBytes, backend.ErrGeometry)
	}
	s.be = be
	s.dirty = bitutil.NewVector(wantPages)
	// Load the persisted counter values (a fresh backend is all zero,
	// which is also a fresh store's state).
	buf := make([]byte, PageBytes)
	for p := 0; p < wantPages; p++ {
		if err := be.ReadPage(p, buf); err != nil {
			return nil, fmt.Errorf("ctrstore: loading counters: %w", err)
		}
		base := p * countersPerPage
		for i := 0; i < countersPerPage && base+i < counters; i++ {
			v := binary.LittleEndian.Uint64(buf[i*8:])
			if v&^s.mask != 0 {
				return nil, fmt.Errorf("ctrstore: persisted counter %d is %d, wider than %d bits: %w", base+i, v, bits, backend.ErrCorrupt)
			}
			s.counters[base+i] = v
		}
	}
	s.pageBuf = buf
	return s, nil
}

// markDirty flags the backend page holding counter idx; a no-op for
// memory-only stores.
func (s *Store) markDirty(idx uint64) {
	if s.dirty != nil {
		s.dirty.Set(int(idx)/countersPerPage, true)
	}
}

// markAllDirty flags every page (after Restore replaced all values).
func (s *Store) markAllDirty() {
	if s.dirty != nil {
		s.dirty.SetAll(true)
	}
}

// Sync writes every dirty counter page back to the backend and flushes it
// into the persistence domain. A no-op for memory-only stores.
func (s *Store) Sync() error {
	if s.be == nil {
		return nil
	}
	if err := s.flushDirty(); err != nil {
		return err
	}
	return s.be.Sync()
}

// flushDirty writes dirty pages into the backend without the final
// persistence-domain flush — the "counter writeback issued but not yet
// durable" half of Sync, which the crash drills exercise on its own.
func (s *Store) flushDirty() error {
	for p := 0; p < s.dirty.Len(); p++ {
		if !s.dirty.Get(p) {
			continue
		}
		base := p * countersPerPage
		vals := s.counters[base:min(base+countersPerPage, len(s.counters))]
		buf := s.pageBuf[:len(vals)*8]
		for i, v := range vals {
			binary.LittleEndian.PutUint64(buf[i*8:], v)
		}
		clear(s.pageBuf[len(buf):])
		if err := s.be.WritePage(p, s.pageBuf); err != nil {
			return fmt.Errorf("ctrstore: %w", err)
		}
		s.dirty.Set(p, false)
	}
	return nil
}

// Close releases the backend without an implicit Sync (matching the
// backend contract); memory-only stores are a no-op.
func (s *Store) Close() error {
	if s.be == nil {
		return nil
	}
	return s.be.Close()
}

// Backend returns the storage under the store (nil for memory-only), for
// drills that crash or inspect it directly.
func (s *Store) Backend() backend.Backend { return s.be }
