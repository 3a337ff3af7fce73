package backend

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// fillPattern writes a deterministic per-page pattern so reopen tests can
// recognize every page.
func fillPattern(t *testing.T, b Backend, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	buf := make([]byte, b.PageSize())
	for p := 0; p < b.Pages(); p++ {
		rng.Read(buf)
		if err := b.WritePage(p, buf); err != nil {
			t.Fatalf("WritePage(%d): %v", p, err)
		}
	}
}

func checkPattern(t *testing.T, b Backend, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	want := make([]byte, b.PageSize())
	got := make([]byte, b.PageSize())
	for p := 0; p < b.Pages(); p++ {
		rng.Read(want)
		if err := b.ReadPage(p, got); err != nil {
			t.Fatalf("ReadPage(%d): %v", p, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("page %d content mismatch", p)
		}
	}
}

// TestConformance runs every implementation through the same read/write/
// sync contract; only Mem has the Pager fast path.
func TestConformance(t *testing.T) {
	const pages, pageSize = 37, 80
	cases := []struct {
		name  string
		make  func(t *testing.T) Backend
		pager bool
	}{
		{"mem", func(t *testing.T) Backend { return NewMem(pages, pageSize) }, true},
		{"file-mmap", func(t *testing.T) Backend {
			b, err := OpenFile(filepath.Join(t.TempDir(), "a.pg"), pages, pageSize)
			if err != nil {
				t.Fatal(err)
			}
			return b
		}, false},
		{"file-nommap", func(t *testing.T) Backend {
			b, err := OpenFile(filepath.Join(t.TempDir(), "a.pg"), pages, pageSize, FileOptions{NoMmap: true})
			if err != nil {
				t.Fatal(err)
			}
			return b
		}, false},
		{"dir", func(t *testing.T) Backend {
			b, err := OpenDir(filepath.Join(t.TempDir(), "arr"), pages, pageSize, 4)
			if err != nil {
				t.Fatal(err)
			}
			return b
		}, false},
		{"crashsim", func(t *testing.T) Backend { return NewCrashSim(NewMem(pages, pageSize)) }, false},
		{"journal", func(t *testing.T) Backend {
			b, err := Journal(NewMem(pages, pageSize), NewMem(JournalPages(pages, pageSize), JournalPageSize))
			if err != nil {
				t.Fatal(err)
			}
			return b
		}, false},
		{"journal-file", func(t *testing.T) Backend {
			root := t.TempDir()
			data, err := OpenFile(filepath.Join(root, "a.pg"), pages, pageSize)
			if err != nil {
				t.Fatal(err)
			}
			b, err := OpenJournal(filepath.Join(root, "a.jnl"), data)
			if err != nil {
				t.Fatal(err)
			}
			return b
		}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := tc.make(t)
			defer b.Close()
			if b.Pages() != pages || b.PageSize() != pageSize {
				t.Fatalf("geometry %d×%d, want %d×%d", b.Pages(), b.PageSize(), pages, pageSize)
			}
			if got := AsPager(b) != nil; got != tc.pager {
				t.Fatalf("AsPager presence = %v, want %v", got, tc.pager)
			}
			fillPattern(t, b, 7)
			if err := b.Sync(); err != nil {
				t.Fatalf("Sync: %v", err)
			}
			checkPattern(t, b, 7)
			if pg := AsPager(b); pg != nil {
				// The zero-copy view must agree with ReadPage and reflect
				// direct mutation.
				buf := make([]byte, pageSize)
				if err := b.ReadPage(3, buf); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(pg.Page(3), buf) {
					t.Fatal("Pager view disagrees with ReadPage")
				}
				pg.Page(3)[0] ^= 0xFF
				if err := b.ReadPage(3, buf); err != nil {
					t.Fatal(err)
				}
				if buf[0] != pg.Page(3)[0] {
					t.Fatal("direct page mutation not visible through ReadPage")
				}
			}
			// Out-of-range and missized accesses fail, not panic.
			buf := make([]byte, pageSize)
			if err := b.ReadPage(pages, buf); err == nil {
				t.Fatal("ReadPage past end succeeded")
			}
			if err := b.WritePage(0, buf[:pageSize-1]); err == nil {
				t.Fatal("short WritePage succeeded")
			}
		})
	}
}

// TestFileReopenPreserves pins the durability contract: contents written
// before Close are there after reopen, for both file modes and the dir
// backend.
func TestFileReopenPreserves(t *testing.T) {
	const pages, pageSize = 19, 96
	for _, tc := range []struct {
		name   string
		open   func(root string) (Backend, error)
		reopen func(root string) (Backend, error)
	}{
		{"file", func(root string) (Backend, error) {
			return OpenFile(filepath.Join(root, "a.pg"), pages, pageSize)
		}, func(root string) (Backend, error) {
			return OpenFile(filepath.Join(root, "a.pg"), pages, pageSize)
		}},
		{"file-nommap-cross", func(root string) (Backend, error) {
			return OpenFile(filepath.Join(root, "a.pg"), pages, pageSize, FileOptions{NoMmap: true})
		}, func(root string) (Backend, error) {
			// Written without mmap, reopened with: same bytes.
			return OpenFile(filepath.Join(root, "a.pg"), pages, pageSize)
		}},
		{"dir", func(root string) (Backend, error) {
			return OpenDir(filepath.Join(root, "arr"), pages, pageSize, 3)
		}, func(root string) (Backend, error) {
			// Shard count comes from the manifest on reopen.
			return OpenDir(filepath.Join(root, "arr"), pages, pageSize, 0)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			root := t.TempDir()
			b, err := tc.open(root)
			if err != nil {
				t.Fatal(err)
			}
			fillPattern(t, b, 11)
			if err := b.Sync(); err != nil {
				t.Fatal(err)
			}
			if err := b.Close(); err != nil {
				t.Fatal(err)
			}
			rb, err := tc.reopen(root)
			if err != nil {
				t.Fatal(err)
			}
			defer rb.Close()
			checkPattern(t, rb, 11)
		})
	}
}

// TestFileFailurePaths pins the typed open-time errors: truncation,
// corruption and geometry mismatch are ErrTruncated/ErrCorrupt/ErrGeometry,
// never panics or silent misreads.
func TestFileFailurePaths(t *testing.T) {
	const pages, pageSize = 8, 64
	mk := func(t *testing.T) string {
		path := filepath.Join(t.TempDir(), "a.pg")
		b, err := OpenFile(path, pages, pageSize)
		if err != nil {
			t.Fatal(err)
		}
		fillPattern(t, b, 3)
		if err := b.Sync(); err != nil {
			t.Fatal(err)
		}
		if err := b.Close(); err != nil {
			t.Fatal(err)
		}
		return path
	}

	t.Run("truncated", func(t *testing.T) {
		path := mk(t)
		if err := os.Truncate(path, fileHeaderSize+3*pageSize-7); err != nil {
			t.Fatal(err)
		}
		_, err := OpenFile(path, pages, pageSize)
		if !errors.Is(err, ErrTruncated) {
			t.Fatalf("got %v, want ErrTruncated", err)
		}
	})
	t.Run("short-header", func(t *testing.T) {
		path := mk(t)
		if err := os.Truncate(path, 10); err != nil {
			t.Fatal(err)
		}
		_, err := OpenFile(path, pages, pageSize)
		if !errors.Is(err, ErrTruncated) {
			t.Fatalf("got %v, want ErrTruncated", err)
		}
	})
	t.Run("corrupt-magic", func(t *testing.T) {
		path := mk(t)
		f, err := os.OpenFile(path, os.O_RDWR, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt([]byte("XXXX"), 0); err != nil {
			t.Fatal(err)
		}
		f.Close()
		_, err = OpenFile(path, pages, pageSize)
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("got %v, want ErrCorrupt", err)
		}
	})
	t.Run("corrupt-header-checksum", func(t *testing.T) {
		path := mk(t)
		f, err := os.OpenFile(path, os.O_RDWR, 0)
		if err != nil {
			t.Fatal(err)
		}
		// Flip a bit inside the declared page count without fixing the CRC.
		if _, err := f.WriteAt([]byte{0xFF}, 9); err != nil {
			t.Fatal(err)
		}
		f.Close()
		_, err = OpenFile(path, pages, pageSize)
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("got %v, want ErrCorrupt", err)
		}
	})
	t.Run("geometry", func(t *testing.T) {
		path := mk(t)
		_, err := OpenFile(path, pages*2, pageSize)
		if !errors.Is(err, ErrGeometry) {
			t.Fatalf("got %v, want ErrGeometry", err)
		}
		_, err = OpenFile(path, pages, pageSize*2)
		if !errors.Is(err, ErrGeometry) {
			t.Fatalf("got %v, want ErrGeometry", err)
		}
	})
	t.Run("closed", func(t *testing.T) {
		path := mk(t)
		b, err := OpenFile(path, pages, pageSize)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.Close(); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, pageSize)
		if err := b.ReadPage(0, buf); !errors.Is(err, ErrClosed) {
			t.Fatalf("got %v, want ErrClosed", err)
		}
		if err := b.Sync(); !errors.Is(err, ErrClosed) {
			t.Fatalf("got %v, want ErrClosed", err)
		}
	})
}

// FuzzFileHeader opens a fixed-geometry File over arbitrary bytes: valid
// headers, cuts of one and bit flips in any field or the page data. raw's
// header checksum is recomputed when fixCRC is set, so the fuzzer reaches
// the version, geometry and size checks behind it. OpenFile must never
// panic, every error must be typed, and an accepted file must hold the
// requested geometry and keep its page bytes (an empty file is created
// zero-filled).
func FuzzFileHeader(f *testing.F) {
	const pages, pageSize = 4, 64
	path := filepath.Join(f.TempDir(), "seed.pg")
	b, err := OpenFile(path, pages, pageSize)
	if err != nil {
		f.Fatal(err)
	}
	for p := 0; p < pages; p++ {
		if err := b.WritePage(p, bytes.Repeat([]byte{byte(p + 1)}, pageSize)); err != nil {
			f.Fatal(err)
		}
	}
	if err := b.Close(); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	for _, fix := range []bool{false, true} {
		f.Add(valid, fix)
		f.Add(append(bytes.Clone(valid), 0), fix)
		for _, n := range []int{0, 27, 28, fileHeaderSize, len(valid) - 1} {
			f.Add(bytes.Clone(valid[:n]), fix)
		}
		for _, off := range []int{0, 4, 8, 16, 24, 100, fileHeaderSize + 5} {
			flipped := bytes.Clone(valid)
			flipped[off] ^= 0x10
			f.Add(flipped, fix)
		}
	}
	f.Fuzz(func(t *testing.T, raw []byte, fixCRC bool) {
		if fixCRC && len(raw) >= 28 {
			binary.LittleEndian.PutUint32(raw[24:], crc32.ChecksumIEEE(raw[:24]))
		}
		path := filepath.Join(t.TempDir(), "h.pg")
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		b, err := OpenFile(path, pages, pageSize)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrGeometry) {
				t.Fatalf("untyped error %v", err)
			}
			return
		}
		defer b.Close()
		if b.Pages() != pages || b.PageSize() != pageSize {
			t.Fatalf("opened %d×%dB, want %d×%dB", b.Pages(), b.PageSize(), pages, pageSize)
		}
		want := make([]byte, pages*pageSize)
		if len(raw) > 0 {
			want = raw[fileHeaderSize:]
		}
		got := make([]byte, pageSize)
		for p := 0; p < pages; p++ {
			if err := b.ReadPage(p, got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want[p*pageSize:(p+1)*pageSize]) {
				t.Fatalf("page %d reads %x, file holds %x", p, got, want[p*pageSize:(p+1)*pageSize])
			}
		}
	})
}

// TestDirFailurePaths covers the manifest analogues.
func TestDirFailurePaths(t *testing.T) {
	const pages, pageSize = 10, 64
	mk := func(t *testing.T) string {
		root := filepath.Join(t.TempDir(), "arr")
		b, err := OpenDir(root, pages, pageSize, 2)
		if err != nil {
			t.Fatal(err)
		}
		fillPattern(t, b, 5)
		if err := b.Sync(); err != nil {
			t.Fatal(err)
		}
		if err := b.Close(); err != nil {
			t.Fatal(err)
		}
		return root
	}
	t.Run("geometry", func(t *testing.T) {
		root := mk(t)
		if _, err := OpenDir(root, pages+1, pageSize, 2); !errors.Is(err, ErrGeometry) {
			t.Fatalf("got %v, want ErrGeometry", err)
		}
	})
	t.Run("corrupt-manifest", func(t *testing.T) {
		root := mk(t)
		m := filepath.Join(root, dirManifestName)
		raw, err := os.ReadFile(m)
		if err != nil {
			t.Fatal(err)
		}
		raw[8] ^= 0xFF
		if err := os.WriteFile(m, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenDir(root, pages, pageSize, 2); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("got %v, want ErrCorrupt", err)
		}
	})
	t.Run("truncated-manifest", func(t *testing.T) {
		root := mk(t)
		if err := os.Truncate(filepath.Join(root, dirManifestName), 12); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenDir(root, pages, pageSize, 2); !errors.Is(err, ErrTruncated) {
			t.Fatalf("got %v, want ErrTruncated", err)
		}
	})
	t.Run("truncated-shard", func(t *testing.T) {
		root := mk(t)
		if err := os.Truncate(filepath.Join(root, "shard-0001.pg"), fileHeaderSize+1); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenDir(root, pages, pageSize, 2); !errors.Is(err, ErrTruncated) {
			t.Fatalf("got %v, want ErrTruncated", err)
		}
	})
}

// TestCrashSim pins the persistence-domain model: synced pages survive
// Crash, unsynced ones roll back, and Passthrough (eADR) loses nothing.
func TestCrashSim(t *testing.T) {
	const pages, pageSize = 6, 32
	inner := NewMem(pages, pageSize)
	c := NewCrashSim(inner)
	one := bytes.Repeat([]byte{1}, pageSize)
	two := bytes.Repeat([]byte{2}, pageSize)
	for p := 0; p < pages; p++ {
		if err := c.WritePage(p, one); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Sync(); err != nil {
		t.Fatal(err)
	}
	// Overwrite half, no sync, crash.
	for p := 0; p < pages/2; p++ {
		if err := c.WritePage(p, two); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.Unsynced(); got != pages/2 {
		t.Fatalf("Unsynced = %d, want %d", got, pages/2)
	}
	if lost := c.Crash(); lost != pages/2 {
		t.Fatalf("Crash dropped %d pages, want %d", lost, pages/2)
	}
	buf := make([]byte, pageSize)
	for p := 0; p < pages; p++ {
		if err := c.ReadPage(p, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, one) {
			t.Fatalf("page %d rolled forward past the crash", p)
		}
	}
	// eADR: writes land in the domain immediately.
	c.Passthrough = true
	if err := c.WritePage(0, two); err != nil {
		t.Fatal(err)
	}
	if lost := c.Crash(); lost != 0 {
		t.Fatalf("passthrough Crash dropped %d pages, want 0", lost)
	}
	if err := c.ReadPage(0, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, two) {
		t.Fatal("passthrough write lost at crash")
	}
}
