package backend

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

// Manifest layout (file "manifest" inside the directory):
//
//	[0:4)   magic "DDM1"
//	[4:8)   format version (uint32 LE) = 1
//	[8:16)  page count (uint64 LE)
//	[16:24) page size (uint64 LE)
//	[24:32) shard count (uint64 LE)
//	[32:36) CRC-32 (IEEE) of bytes [0:32)
const dirManifestName = "manifest"

var dirMagic = [4]byte{'D', 'D', 'M', '1'}

// DefaultDirShards is the shard-file count OpenDir uses when the caller
// passes 0.
const DefaultDirShards = 16

// Dir is the sharded-directory Backend for arrays far larger than RAM: the
// page space is split contiguously across N shard files (each a File with
// its own mmap), so resident memory is whatever the OS chooses to keep paged
// in, not the array size. A manifest file pins geometry and shard count;
// reopening with different geometry fails with ErrGeometry, a damaged
// manifest with ErrCorrupt.
type Dir struct {
	dir      string
	pages    int
	pageSize int
	perShard int // pages per shard (last shard may hold fewer)
	shards   []*File
	closed   bool
}

// OpenDir opens (or creates) a sharded directory store of pages×pageSize
// bytes under dir, split over shards files (0 means DefaultDirShards).
// Existing contents are preserved and validated against the manifest.
func OpenDir(dir string, pages, pageSize, shards int) (*Dir, error) {
	if pages <= 0 || pageSize <= 0 {
		return nil, fmt.Errorf("backend: OpenDir %s: geometry %d×%dB must be positive", dir, pages, pageSize)
	}
	if shards <= 0 {
		shards = DefaultDirShards
	}
	if shards > pages {
		shards = pages
	}
	shards = usedShards(pages, shards)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("backend: OpenDir %s: %w", dir, err)
	}
	mpath := filepath.Join(dir, dirManifestName)
	if raw, err := os.ReadFile(mpath); err == nil {
		gotPages, gotSize, gotShards, err := parseManifest(mpath, raw)
		if err != nil {
			return nil, err
		}
		if gotPages != pages || gotSize != pageSize {
			return nil, fmt.Errorf("backend: %s holds %d×%dB pages, caller wants %d×%dB: %w",
				dir, gotPages, gotSize, pages, pageSize, ErrGeometry)
		}
		// The manifest's shard split wins: the caller's shard count is a
		// layout hint for creation, not part of the logical geometry.
		shards = gotShards
	} else if os.IsNotExist(err) {
		if err := writeManifest(mpath, pages, pageSize, shards); err != nil {
			return nil, fmt.Errorf("backend: OpenDir %s: %w", dir, err)
		}
	} else {
		return nil, fmt.Errorf("backend: OpenDir %s: %w", dir, err)
	}

	d := &Dir{
		dir:      dir,
		pages:    pages,
		pageSize: pageSize,
		perShard: (pages + shards - 1) / shards,
		shards:   make([]*File, shards),
	}
	for i := range d.shards {
		sp := d.shardPages(i)
		f, err := OpenFile(filepath.Join(dir, fmt.Sprintf("shard-%04d.pg", i)), sp, pageSize)
		if err != nil {
			d.Close()
			return nil, err
		}
		d.shards[i] = f
	}
	return d, nil
}

// usedShards returns how many of shards (1 <= shards <= pages) hold pages
// when the page space is split contiguously, ceil(pages/shards) per shard:
// 16 pages over 10 shards fill only 8.
func usedShards(pages, shards int) int {
	per := (pages-1)/shards + 1
	return (pages-1)/per + 1
}

// shardPages returns how many pages shard i holds.
func (d *Dir) shardPages(i int) int {
	sp := d.pages - i*d.perShard
	if sp > d.perShard {
		sp = d.perShard
	}
	return sp
}

func writeManifest(path string, pages, pageSize, shards int) error {
	m := make([]byte, 36)
	copy(m, dirMagic[:])
	binary.LittleEndian.PutUint32(m[4:], fileVersion)
	binary.LittleEndian.PutUint64(m[8:], uint64(pages))
	binary.LittleEndian.PutUint64(m[16:], uint64(pageSize))
	binary.LittleEndian.PutUint64(m[24:], uint64(shards))
	binary.LittleEndian.PutUint32(m[32:], crc32.ChecksumIEEE(m[:32]))
	return os.WriteFile(path, m, 0o644)
}

func parseManifest(path string, raw []byte) (pages, pageSize, shards int, err error) {
	if len(raw) < 36 {
		return 0, 0, 0, fmt.Errorf("backend: %s: manifest of %d bytes: %w", path, len(raw), ErrTruncated)
	}
	if [4]byte(raw[:4]) != dirMagic {
		return 0, 0, 0, fmt.Errorf("backend: %s: bad magic %q: %w", path, raw[:4], ErrCorrupt)
	}
	if crc32.ChecksumIEEE(raw[:32]) != binary.LittleEndian.Uint32(raw[32:]) {
		return 0, 0, 0, fmt.Errorf("backend: %s: manifest checksum mismatch: %w", path, ErrCorrupt)
	}
	if v := binary.LittleEndian.Uint32(raw[4:]); v != fileVersion {
		return 0, 0, 0, fmt.Errorf("backend: %s: unknown manifest version %d: %w", path, v, ErrCorrupt)
	}
	pages = int(binary.LittleEndian.Uint64(raw[8:]))
	pageSize = int(binary.LittleEndian.Uint64(raw[16:]))
	shards = int(binary.LittleEndian.Uint64(raw[24:]))
	// OpenDir writes only splits in which every shard holds a page; any
	// other shard count would size the shard table or a shard file from
	// corrupt fields.
	if shards <= 0 || shards > pages || usedShards(pages, shards) != shards {
		return 0, 0, 0, fmt.Errorf("backend: %s: manifest declares %d shards for %d pages: %w", path, shards, pages, ErrCorrupt)
	}
	return pages, pageSize, shards, nil
}

// Pages implements Backend.
func (d *Dir) Pages() int { return d.pages }

// PageSize implements Backend.
func (d *Dir) PageSize() int { return d.pageSize }

// route converts a global page index to (shard, local page).
func (d *Dir) route(page int) (shard *File, local int) {
	return d.shards[page/d.perShard], page % d.perShard
}

// ReadPage implements Backend.
func (d *Dir) ReadPage(page int, dst []byte) error {
	if d.closed {
		return fmt.Errorf("%s ReadPage: %w", d.dir, ErrClosed)
	}
	if err := checkPage("dir", d.pages, d.pageSize, page, dst); err != nil {
		return err
	}
	s, local := d.route(page)
	return s.ReadPage(local, dst)
}

// WritePage implements Backend.
func (d *Dir) WritePage(page int, src []byte) error {
	if d.closed {
		return fmt.Errorf("%s WritePage: %w", d.dir, ErrClosed)
	}
	if err := checkPage("dir", d.pages, d.pageSize, page, src); err != nil {
		return err
	}
	s, local := d.route(page)
	return s.WritePage(local, src)
}

// Sync implements Backend: every shard flushes.
func (d *Dir) Sync() error {
	if d.closed {
		return fmt.Errorf("%s Sync: %w", d.dir, ErrClosed)
	}
	for _, s := range d.shards {
		if err := s.Sync(); err != nil {
			return err
		}
	}
	return nil
}

// Close implements Backend.
func (d *Dir) Close() error {
	if d.closed {
		return nil
	}
	d.closed = true
	var first error
	for _, s := range d.shards {
		if s == nil {
			continue
		}
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
