package backend

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
)

// Journal layout. The log is a Backend of JournalPageSize-byte pages. Page 0
// is the header:
//
//	[0:4)   magic "DJL1"
//	[4:8)   format version (uint32 LE) = 1
//	[8:16)  generation (uint64 LE)
//	[16:24) data page count (uint64 LE)
//	[24:32) data page size (uint64 LE)
//	[32:36) CRC-32 (IEEE) of bytes [0:32)
//
// Pages 1.. are the record area, one byte stream of records appended in
// order since the last checkpoint. A record is
//
//	[0:8)   generation (uint64 LE), the header's at the time of writing
//	[8:12)  payload length n (uint32 LE)
//	[12:16) CRC-32 (IEEE) of bytes [0:12) followed by the payload
//	[16:16+n) payload: extents, each
//	        [0:8) data page (uint64 LE), [8:12) offset in the page,
//	        [12:16) length m (uint32 LE), then the m new bytes
//
// An extent holds absolute bytes, so replaying a record twice is the same
// as replaying it once.
const (
	// JournalPageSize is the page size of every journal log.
	JournalPageSize = 4096
	journalVersion  = 1
	recordHeader    = 16
	extentHeader    = 16
	// sealBytes bounds the open record: one that grows past it is sealed
	// early, as a Sync would seal it, so a bulk phase (installing a whole
	// region) streams through the log instead of buffering it in memory.
	sealBytes = 64 << 10
)

var journalMagic = [4]byte{'D', 'J', 'L', '1'}

// JournalPages is the one sizing rule for a journal log over a data region
// of pages×pageSize bytes: a header page, then a record area as large as
// the region plus one page. The spare page guarantees that the changes of
// any single WritePage fit an empty log (a page's extents never exceed one
// whole-page extent), so a checkpoint always makes room.
func JournalPages(pages, pageSize int) int {
	return 2 + (pages*pageSize+JournalPageSize-1)/JournalPageSize
}

// Journaled is a redo-journaled Backend: writes go through to data in
// place, and Sync persists them by appending the changed bytes to log and
// flushing only log, instead of flushing every data page a write touched.
//
// WritePage diffs the new page against the stored one eight bytes at a
// time and adds each changed run to the open record as an extent, then
// writes the page through to data. Sync seals the open record (generation,
// length, CRC-32) into the log's tail pages and calls log.Sync; with no
// open extents it does nothing. When a write's extents would not fit the
// space left in the log, the journal first seals and syncs the open record
// and then checkpoints — data.Sync, bump the header's generation, log.Sync
// — and only then applies the write: no change reaches data's persistence
// domain before the log holds it, so a crash inside a checkpoint replays a
// log that data already contains.
//
// Opening replays the current generation's records in order, stopping at
// the first record whose generation or CRC does not match (a torn or
// stale tail), then checkpoints. After a crash every page logged since the
// last checkpoint holds its value as of the last completed Sync, or a
// value written after it when an overflow flushed part of a later
// interval; pages not logged since the checkpoint hold their checkpointed
// value or a later write the OS flushed on its own.
//
// Journaled is not a Pager: every write must pass through WritePage to be
// logged.
type Journaled struct {
	data, log Backend
	gen       uint64
	capacity  int // record-area bytes
	tail      int // record-area bytes used in this generation

	// pending is the open record: a recordHeader placeholder followed by
	// the extents of every write since the last seal.
	pending []byte
	// old is a scratch data page, the stored image a write diffs against.
	old []byte
	// tailPage mirrors the log page holding byte tail of the record area.
	tailPage []byte
	// err is sticky: after a failed log or data flush the journal's view
	// of the log is unknown, and only reopening recovers.
	err    error
	closed bool
}

// Journal wraps data in a redo journal kept in log, which must be
// JournalPages(data.Pages(), data.PageSize()) pages of JournalPageSize
// bytes. It replays the log into data and checkpoints before returning.
// A log header that fails validation is ErrCorrupt, one written for other
// data geometry ErrGeometry, and a record that passes its CRC but names a
// byte outside data's pages ErrCorrupt; replay writes nothing outside
// data's geometry. The journal owns both backends once it is returned, and
// Close closes them; on error the caller still owns them.
func Journal(data, log Backend) (*Journaled, error) {
	pages, pageSize := data.Pages(), data.PageSize()
	if want := JournalPages(pages, pageSize); log.Pages() != want || log.PageSize() != JournalPageSize {
		return nil, fmt.Errorf("backend: journal log holds %d×%dB pages, %d×%dB data needs %d×%dB: %w",
			log.Pages(), log.PageSize(), pages, pageSize, want, JournalPageSize, ErrGeometry)
	}
	j := &Journaled{
		data:     data,
		log:      log,
		capacity: (log.Pages() - 1) * JournalPageSize,
		pending:  make([]byte, recordHeader, recordHeader+JournalPageSize),
		old:      make([]byte, pageSize),
		tailPage: make([]byte, JournalPageSize),
	}
	hdr := j.tailPage
	if err := log.ReadPage(0, hdr); err != nil {
		return nil, err
	}
	if !allZero(hdr) { // an all-zero header is a log created but never checkpointed
		gen, err := parseJournalHeader(hdr, pages, pageSize)
		if err != nil {
			return nil, err
		}
		j.gen = gen
		if err := j.replay(); err != nil {
			return nil, err
		}
	}
	if err := j.checkpoint(); err != nil {
		return nil, err
	}
	return j, nil
}

// OpenJournal opens (or creates) the journal log File at path, sized by
// JournalPages, and wraps data in it. A newly created log's directory is
// fsynced once the log is initialized, so its entry survives a crash. On
// error both data and the log are closed.
func OpenJournal(path string, data Backend) (*Journaled, error) {
	_, statErr := os.Stat(path)
	log, err := OpenFile(path, JournalPages(data.Pages(), data.PageSize()), JournalPageSize)
	if err != nil {
		data.Close()
		return nil, err
	}
	j, err := Journal(data, log)
	if err != nil {
		data.Close()
		log.Close()
		return nil, err
	}
	if os.IsNotExist(statErr) {
		if err := syncDir(filepath.Dir(path)); err != nil {
			j.Close()
			return nil, err
		}
	}
	return j, nil
}

// syncDir fsyncs a directory, so an entry created in it is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("backend: %w", err)
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("backend: sync dir %s: %w", dir, err)
	}
	return nil
}

func allZero(b []byte) bool {
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}

func parseJournalHeader(hdr []byte, pages, pageSize int) (gen uint64, err error) {
	if [4]byte(hdr[:4]) != journalMagic {
		return 0, fmt.Errorf("backend: journal log: bad magic %q: %w", hdr[:4], ErrCorrupt)
	}
	if crc32.ChecksumIEEE(hdr[:32]) != binary.LittleEndian.Uint32(hdr[32:]) {
		return 0, fmt.Errorf("backend: journal log: header checksum mismatch: %w", ErrCorrupt)
	}
	if v := binary.LittleEndian.Uint32(hdr[4:]); v != journalVersion {
		return 0, fmt.Errorf("backend: journal log: unknown format version %d: %w", v, ErrCorrupt)
	}
	gotPages, gotSize := binary.LittleEndian.Uint64(hdr[16:]), binary.LittleEndian.Uint64(hdr[24:])
	if gotPages != uint64(pages) || gotSize != uint64(pageSize) {
		return 0, fmt.Errorf("backend: journal log is for %d×%dB data, not %d×%dB: %w",
			gotPages, gotSize, pages, pageSize, ErrGeometry)
	}
	return binary.LittleEndian.Uint64(hdr[8:]), nil
}

// replay applies the current generation's records in log order. A record
// is applied only once all of its extents are known to lie inside data.
func (j *Journaled) replay() error {
	var h [recordHeader]byte
	var payload []byte
	for off := 0; off+recordHeader <= j.capacity; {
		if err := j.readArea(off, h[:]); err != nil {
			return err
		}
		n := int(binary.LittleEndian.Uint32(h[8:]))
		if binary.LittleEndian.Uint64(h[:]) != j.gen || n > j.capacity-off-recordHeader {
			return nil // a stale or torn tail
		}
		payload = slices.Grow(payload[:0], n)[:n]
		if err := j.readArea(off+recordHeader, payload); err != nil {
			return err
		}
		if crc32.Update(crc32.ChecksumIEEE(h[:12]), crc32.IEEETable, payload) != binary.LittleEndian.Uint32(h[12:]) {
			return nil
		}
		if err := j.checkExtents(payload); err != nil {
			return fmt.Errorf("backend: journal record at %d: %w", off, err)
		}
		if err := j.applyExtents(payload); err != nil {
			return err
		}
		off += recordHeader + n
	}
	return nil
}

// readArea copies record-area bytes [off, off+len(dst)) out of the log.
func (j *Journaled) readArea(off int, dst []byte) error {
	for len(dst) > 0 {
		if err := j.log.ReadPage(1+off/JournalPageSize, j.tailPage); err != nil {
			return err
		}
		n := copy(dst, j.tailPage[off%JournalPageSize:])
		dst, off = dst[n:], off+n
	}
	return nil
}

// checkExtents validates a CRC-clean payload against data's geometry.
func (j *Journaled) checkExtents(payload []byte) error {
	pages, pageSize := uint64(j.data.Pages()), uint64(j.data.PageSize())
	for len(payload) > 0 {
		if len(payload) < extentHeader {
			return fmt.Errorf("extent header cut at %d bytes: %w", len(payload), ErrCorrupt)
		}
		page := binary.LittleEndian.Uint64(payload)
		off := uint64(binary.LittleEndian.Uint32(payload[8:]))
		n := uint64(binary.LittleEndian.Uint32(payload[12:]))
		if page >= pages || n == 0 || off+n > pageSize || n > uint64(len(payload)-extentHeader) {
			return fmt.Errorf("extent of %d bytes at page %d offset %d outside %d×%dB data: %w",
				n, page, off, pages, pageSize, ErrCorrupt)
		}
		payload = payload[extentHeader+n:]
	}
	return nil
}

// applyExtents writes a validated payload's extents into data.
func (j *Journaled) applyExtents(payload []byte) error {
	for len(payload) > 0 {
		page := int(binary.LittleEndian.Uint64(payload))
		off := int(binary.LittleEndian.Uint32(payload[8:]))
		n := int(binary.LittleEndian.Uint32(payload[12:]))
		if err := j.data.ReadPage(page, j.old); err != nil {
			return err
		}
		copy(j.old[off:], payload[extentHeader:extentHeader+n])
		if err := j.data.WritePage(page, j.old); err != nil {
			return err
		}
		payload = payload[extentHeader+n:]
	}
	return nil
}

// Pages implements Backend.
func (j *Journaled) Pages() int { return j.data.Pages() }

// PageSize implements Backend.
func (j *Journaled) PageSize() int { return j.data.PageSize() }

// ReadPage implements Backend.
func (j *Journaled) ReadPage(page int, dst []byte) error {
	if j.closed {
		return fmt.Errorf("journal ReadPage: %w", ErrClosed)
	}
	return j.data.ReadPage(page, dst)
}

// WritePage implements Backend: log the changed runs, then write through.
// A write that changes nothing is dropped.
func (j *Journaled) WritePage(page int, src []byte) error {
	if j.closed {
		return fmt.Errorf("journal WritePage: %w", ErrClosed)
	}
	if j.err != nil {
		return j.err
	}
	if err := checkPage("journal", j.Pages(), j.PageSize(), page, src); err != nil {
		return err
	}
	if err := j.data.ReadPage(page, j.old); err != nil {
		return err
	}
	mark := len(j.pending)
	j.appendDiff(page, src)
	if len(j.pending) == mark {
		return nil
	}
	if j.tail+len(j.pending) > j.capacity {
		j.pending = j.pending[:mark]
		if err := j.seal(); err != nil {
			return err
		}
		if err := j.checkpoint(); err != nil {
			return err
		}
		mark = len(j.pending)
		j.appendDiff(page, src)
	}
	if err := j.data.WritePage(page, src); err != nil {
		j.pending = j.pending[:mark]
		return err
	}
	if len(j.pending) >= sealBytes {
		return j.seal()
	}
	return nil
}

// appendDiff adds the runs where src differs from j.old to the open
// record. Equal 64-byte blocks are skipped whole; inside a differing block
// words are compared eight bytes at a time. Runs closer than an extent
// header are merged, and a page whose extents would outgrow one whole-page
// extent is logged as that.
func (j *Journaled) appendDiff(page int, src []byte) {
	old, start := j.old, len(j.pending)
	runStart, runEnd := -1, 0
	for b := 0; b < len(src); b += 64 {
		blockEnd := min(b+64, len(src))
		if bytes.Equal(old[b:blockEnd], src[b:blockEnd]) {
			continue
		}
		for i := b; i < blockEnd; i += 8 {
			end := min(i+8, blockEnd)
			if end-i == 8 {
				if binary.LittleEndian.Uint64(old[i:]) == binary.LittleEndian.Uint64(src[i:]) {
					continue
				}
			} else if bytes.Equal(old[i:end], src[i:end]) {
				continue
			}
			if runStart >= 0 && i-runEnd < extentHeader {
				runEnd = end
				continue
			}
			if runStart >= 0 {
				j.appendExtent(page, runStart, src[runStart:runEnd])
			}
			runStart, runEnd = i, end
		}
	}
	if runStart >= 0 {
		j.appendExtent(page, runStart, src[runStart:runEnd])
	}
	if len(j.pending)-start > extentHeader+len(src) {
		j.pending = j.pending[:start]
		j.appendExtent(page, 0, src)
	}
}

func (j *Journaled) appendExtent(page, off int, b []byte) {
	j.pending = binary.LittleEndian.AppendUint64(j.pending, uint64(page))
	j.pending = binary.LittleEndian.AppendUint32(j.pending, uint32(off))
	j.pending = binary.LittleEndian.AppendUint32(j.pending, uint32(len(b)))
	j.pending = append(j.pending, b...)
}

// Sync implements Backend: seal the open record into the log and flush
// the log. Data is flushed only by checkpoints.
func (j *Journaled) Sync() error {
	if j.closed {
		return fmt.Errorf("journal Sync: %w", ErrClosed)
	}
	return j.seal()
}

// seal appends the open record, if any, to the log and syncs the log.
func (j *Journaled) seal() error {
	if j.err != nil {
		return j.err
	}
	if len(j.pending) == recordHeader {
		return nil
	}
	if err := j.appendRecord(); err != nil {
		return err
	}
	if err := j.log.Sync(); err != nil {
		j.err = err
		return err
	}
	return nil
}

// appendRecord writes the open record into the log's tail pages, without
// syncing, and starts a new one.
func (j *Journaled) appendRecord() error {
	rec := j.pending
	binary.LittleEndian.PutUint64(rec, j.gen)
	binary.LittleEndian.PutUint32(rec[8:], uint32(len(rec)-recordHeader))
	binary.LittleEndian.PutUint32(rec[12:], crc32.Update(crc32.ChecksumIEEE(rec[:12]), crc32.IEEETable, rec[recordHeader:]))
	for len(rec) > 0 {
		n := copy(j.tailPage[j.tail%JournalPageSize:], rec)
		if err := j.log.WritePage(1+j.tail/JournalPageSize, j.tailPage); err != nil {
			j.err = err
			return err
		}
		rec = rec[n:]
		j.tail += n
		if j.tail%JournalPageSize == 0 {
			clear(j.tailPage)
		}
	}
	j.pending = j.pending[:recordHeader]
	return nil
}

// checkpoint makes data durable, then starts a new, empty generation of
// the log: the header with the next generation and a zeroed first record
// page, flushed together. The open record must be empty.
func (j *Journaled) checkpoint() error {
	if err := j.data.Sync(); err != nil {
		j.err = err
		return err
	}
	j.gen++
	hdr := j.tailPage
	clear(hdr)
	copy(hdr, journalMagic[:])
	binary.LittleEndian.PutUint32(hdr[4:], journalVersion)
	binary.LittleEndian.PutUint64(hdr[8:], j.gen)
	binary.LittleEndian.PutUint64(hdr[16:], uint64(j.data.Pages()))
	binary.LittleEndian.PutUint64(hdr[24:], uint64(j.data.PageSize()))
	binary.LittleEndian.PutUint32(hdr[32:], crc32.ChecksumIEEE(hdr[:32]))
	err := j.log.WritePage(0, hdr)
	clear(j.tailPage)
	if err == nil {
		// A zeroed first record slot ends the new generation's replay
		// until a record lands there, whatever the area held before.
		err = j.log.WritePage(1, j.tailPage)
	}
	if err == nil {
		err = j.log.Sync()
	}
	j.tail = 0
	if err != nil {
		j.err = err
	}
	return err
}

// Close implements Backend. The open record is appended to the log but
// not synced — Close is not Sync — so a clean reopen replays to exactly
// what was written, while a crash may lose the record like any unsynced
// write.
func (j *Journaled) Close() error {
	if j.closed {
		return nil
	}
	j.closed = true
	var first error
	if j.err == nil && len(j.pending) > recordHeader {
		first = j.appendRecord()
	}
	if err := j.data.Close(); err != nil && first == nil {
		first = err
	}
	if err := j.log.Close(); err != nil && first == nil {
		first = err
	}
	return first
}

var _ Backend = (*Journaled)(nil)
