package backend

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"syscall"
	"unsafe"
)

// File header layout, one 4096-byte block before the page data so the data
// region stays OS-page-aligned for mmap:
//
//	[0:4)   magic "DPG1"
//	[4:8)   format version (uint32 LE) = 1
//	[8:16)  page count (uint64 LE)
//	[16:24) page size in bytes (uint64 LE)
//	[24:28) CRC-32 (IEEE) of bytes [0:24)
//	[28:4096) zero
const (
	fileHeaderSize = 4096
	fileVersion    = 1
)

var fileMagic = [4]byte{'D', 'P', 'G', '1'}

// File is a single-file Backend: a validated header block followed by the
// page data. When the OS allows it the data region is mmap'd MAP_SHARED and
// pages are copied in and out of the mapping; otherwise every page access
// goes through pread/pwrite on the same layout. Sync is msync (mapped) or
// File.Sync (unmapped) — either way, after Sync returns, every page written
// so far is in the persistence domain.
type File struct {
	path     string
	f        *os.File
	pages    int
	pageSize int

	mapped []byte // whole-file mapping; nil in the fallback path
	data   []byte // mapped[fileHeaderSize:], the page region
	closed bool
}

// FileOptions tunes OpenFile.
type FileOptions struct {
	// NoMmap forces the pread/pwrite fallback even when mmap would work,
	// for tests and for differential runs of the two paths.
	NoMmap bool
}

// OpenFile opens (or creates) a file-backed store of pages×pageSize bytes at
// path. A missing file is created zero-filled. An existing file must carry a
// valid header (ErrCorrupt otherwise), the full declared size (ErrTruncated)
// and exactly the requested geometry (ErrGeometry); its page contents are
// preserved, which is what makes close-and-reopen durability real.
func OpenFile(path string, pages, pageSize int, opts ...FileOptions) (*File, error) {
	if pages <= 0 || pageSize <= 0 {
		return nil, fmt.Errorf("backend: OpenFile %s: geometry %d×%dB must be positive", path, pages, pageSize)
	}
	var opt FileOptions
	if len(opts) > 0 {
		opt = opts[0]
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("backend: OpenFile %s: %w", path, err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("backend: OpenFile %s: %w", path, err)
	}
	want := int64(fileHeaderSize) + int64(pages)*int64(pageSize)
	if st.Size() == 0 {
		// Fresh file: write the header, then size the page region.
		if err := writeFileHeader(f, pages, pageSize); err != nil {
			f.Close()
			return nil, fmt.Errorf("backend: OpenFile %s: %w", path, err)
		}
		if err := f.Truncate(want); err != nil {
			f.Close()
			return nil, fmt.Errorf("backend: OpenFile %s: %w", path, err)
		}
	} else {
		gotPages, gotSize, err := readFileHeader(f, path)
		if err != nil {
			f.Close()
			return nil, err
		}
		if gotPages != pages || gotSize != pageSize {
			f.Close()
			return nil, fmt.Errorf("backend: %s holds %d×%dB pages, caller wants %d×%dB: %w",
				path, gotPages, gotSize, pages, pageSize, ErrGeometry)
		}
		if st.Size() != want {
			f.Close()
			return nil, fmt.Errorf("backend: %s is %dB, header declares %dB: %w",
				path, st.Size(), want, ErrTruncated)
		}
	}
	fb := &File{path: path, f: f, pages: pages, pageSize: pageSize}
	if !opt.NoMmap {
		if m, err := syscall.Mmap(int(f.Fd()), 0, int(want),
			syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED); err == nil {
			fb.mapped = m
			fb.data = m[fileHeaderSize:]
		}
		// mmap failure is not fatal: fall back to pread/pwrite.
	}
	return fb, nil
}

func writeFileHeader(f *os.File, pages, pageSize int) error {
	hdr := make([]byte, fileHeaderSize)
	copy(hdr, fileMagic[:])
	binary.LittleEndian.PutUint32(hdr[4:], fileVersion)
	binary.LittleEndian.PutUint64(hdr[8:], uint64(pages))
	binary.LittleEndian.PutUint64(hdr[16:], uint64(pageSize))
	binary.LittleEndian.PutUint32(hdr[24:], crc32.ChecksumIEEE(hdr[:24]))
	_, err := f.WriteAt(hdr, 0)
	return err
}

func readFileHeader(f *os.File, path string) (pages, pageSize int, err error) {
	hdr := make([]byte, 28)
	if _, err := f.ReadAt(hdr, 0); err != nil {
		return 0, 0, fmt.Errorf("backend: %s: header unreadable: %w", path, ErrTruncated)
	}
	if [4]byte(hdr[:4]) != fileMagic {
		return 0, 0, fmt.Errorf("backend: %s: bad magic %q: %w", path, hdr[:4], ErrCorrupt)
	}
	if crc32.ChecksumIEEE(hdr[:24]) != binary.LittleEndian.Uint32(hdr[24:]) {
		return 0, 0, fmt.Errorf("backend: %s: header checksum mismatch: %w", path, ErrCorrupt)
	}
	if v := binary.LittleEndian.Uint32(hdr[4:]); v != fileVersion {
		return 0, 0, fmt.Errorf("backend: %s: unknown format version %d: %w", path, v, ErrCorrupt)
	}
	return int(binary.LittleEndian.Uint64(hdr[8:])), int(binary.LittleEndian.Uint64(hdr[16:])), nil
}

// Pages implements Backend.
func (fb *File) Pages() int { return fb.pages }

// PageSize implements Backend.
func (fb *File) PageSize() int { return fb.pageSize }

// mappedPage returns a page's window of the mapping; only valid when the
// mapping exists.
func (fb *File) mappedPage(page int) []byte {
	off := page * fb.pageSize
	return fb.data[off : off+fb.pageSize : off+fb.pageSize]
}

func (fb *File) pageOff(page int) int64 {
	return int64(fileHeaderSize) + int64(page)*int64(fb.pageSize)
}

// ReadPage implements Backend.
func (fb *File) ReadPage(page int, dst []byte) error {
	if fb.closed {
		return fmt.Errorf("%s ReadPage: %w", fb.path, ErrClosed)
	}
	if err := checkPage("file", fb.pages, fb.pageSize, page, dst); err != nil {
		return err
	}
	if fb.mapped != nil {
		copy(dst, fb.mappedPage(page))
		return nil
	}
	if _, err := fb.f.ReadAt(dst, fb.pageOff(page)); err != nil {
		return fmt.Errorf("backend: %s page %d: %w", fb.path, page, err)
	}
	return nil
}

// WritePage implements Backend.
func (fb *File) WritePage(page int, src []byte) error {
	if fb.closed {
		return fmt.Errorf("%s WritePage: %w", fb.path, ErrClosed)
	}
	if err := checkPage("file", fb.pages, fb.pageSize, page, src); err != nil {
		return err
	}
	if fb.mapped != nil {
		copy(fb.mappedPage(page), src)
		return nil
	}
	if _, err := fb.f.WriteAt(src, fb.pageOff(page)); err != nil {
		return fmt.Errorf("backend: %s page %d: %w", fb.path, page, err)
	}
	return nil
}

// Sync implements Backend: msync on the mapping, or fsync in the fallback.
func (fb *File) Sync() error {
	if fb.closed {
		return fmt.Errorf("%s Sync: %w", fb.path, ErrClosed)
	}
	if fb.mapped != nil {
		if err := msync(fb.mapped); err != nil {
			return fmt.Errorf("backend: %s: msync: %w", fb.path, err)
		}
		return nil
	}
	if err := fb.f.Sync(); err != nil {
		return fmt.Errorf("backend: %s: %w", fb.path, err)
	}
	return nil
}

// Close implements Backend: unmap and close without an implicit Sync. The
// OS page cache still carries unsynced writes, so a clean close-and-reopen
// sees them; only a crash loses what Sync had not flushed.
func (fb *File) Close() error {
	if fb.closed {
		return nil
	}
	fb.closed = true
	var first error
	if fb.mapped != nil {
		if err := syscall.Munmap(fb.mapped); err != nil {
			first = fmt.Errorf("backend: %s: munmap: %w", fb.path, err)
		}
		fb.mapped, fb.data = nil, nil
	}
	if err := fb.f.Close(); err != nil && first == nil {
		first = fmt.Errorf("backend: %s: %w", fb.path, err)
	}
	return first
}

// msync flushes a MAP_SHARED mapping synchronously. The syscall package has
// no Msync wrapper, so this issues the raw syscall.
func msync(m []byte) error {
	if len(m) == 0 {
		return nil
	}
	_, _, errno := syscall.Syscall(syscall.SYS_MSYNC,
		uintptr(unsafe.Pointer(&m[0])), uintptr(len(m)), uintptr(syscall.MS_SYNC))
	if errno != 0 {
		return errno
	}
	return nil
}
