// Package backend provides the page-granular storage layer under
// internal/pcmdev and internal/ctrstore: a Backend stores a fixed number of
// fixed-size pages (one page per memory line, or one page per counter block)
// behind open/read-page/write-page/sync/close, so the same scheme code runs
// over RAM, a single mmap-backed file, or a sharded directory of files whose
// total size exceeds RAM.
//
// The persistence domain is exactly what Sync has flushed: WritePage makes a
// page visible to subsequent ReadPage calls on the same handle, but only
// Sync orders it onto durable media. A crash between two Sync calls may
// tear — some pages of the interval durable, others not — which is the
// physical scenario the counter-recovery drills in internal/exp exploit
// (data line durable, its encryption counter rolled back, or vice versa).
// CrashSim models that tear deterministically for tests and experiments.
// Journaled wraps a durable region in a redo log, so a Sync flushes only
// the bytes written since the last one, appended to one log, instead of
// every page they landed in.
//
// Concurrency: a Backend is single-goroutine, like the pcmdev.Device above
// it. Concurrent fronts must partition pages or lock around the owner.
package backend

import (
	"errors"
	"fmt"
)

// Typed failure classes, wrapped by every open-time error so callers can
// errors.Is on the class while the message names the offending file.
var (
	// ErrCorrupt marks a backing file whose header fails validation: bad
	// magic, unknown version, or a header checksum mismatch.
	ErrCorrupt = errors.New("backend: corrupt backing store")
	// ErrTruncated marks a backing file shorter (or longer) than its
	// header-declared geometry requires — typically a torn create or a
	// truncated copy.
	ErrTruncated = errors.New("backend: truncated backing store")
	// ErrGeometry marks an existing backing store whose page geometry does
	// not match what the caller asked to open.
	ErrGeometry = errors.New("backend: geometry mismatch")
	// ErrClosed marks page access after Close.
	ErrClosed = errors.New("backend: use after Close")
)

// Backend is page-granular storage: Pages() fixed-size pages of PageSize()
// bytes each. Pages are line-aligned by construction — internal/pcmdev maps
// memory line l to page l, so every page boundary is a line boundary.
//
// WritePage buffers or stores the page; only Sync places it in the
// persistence domain. Close releases resources without an implicit Sync.
// Implementations are single-goroutine.
type Backend interface {
	// Pages returns the fixed page count.
	Pages() int
	// PageSize returns the fixed page size in bytes.
	PageSize() int
	// ReadPage copies page into dst, which must be PageSize bytes.
	ReadPage(page int, dst []byte) error
	// WritePage stores src, which must be PageSize bytes, as the page's
	// new content.
	WritePage(page int, src []byte) error
	// Sync flushes every write issued so far into the persistence domain.
	Sync() error
	// Close releases the backend. It does not imply Sync.
	Close() error
}

// Pager is the zero-copy fast path: Page returns the live storage of a page
// for direct read/write, valid until Close. Only the in-memory Mem has it:
// durable regions are Journaled, whose every write must pass through
// WritePage to be logged, and CrashSim, whose point is to interpose on
// writes.
type Pager interface {
	Page(page int) []byte
}

// AsPager returns b's zero-copy page view, or nil when b has none.
func AsPager(b Backend) Pager {
	p, _ := b.(Pager)
	return p
}

// checkGeometry validates a page index and buffer length against the
// backend geometry; kind names the implementation in panics/errors.
func checkPage(kind string, pages, pageSize, page int, buf []byte) error {
	if page < 0 || page >= pages {
		return fmt.Errorf("backend: %s page %d out of range [0,%d)", kind, page, pages)
	}
	if len(buf) != pageSize {
		return fmt.Errorf("backend: %s page buffer of %d bytes, want %d", kind, len(buf), pageSize)
	}
	return nil
}
