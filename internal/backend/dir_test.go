package backend

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// manifestBytes encodes a manifest with a valid checksum, whatever its
// fields say.
func manifestBytes(pages, pageSize, shards uint64) []byte {
	m := make([]byte, 36)
	copy(m, dirMagic[:])
	binary.LittleEndian.PutUint32(m[4:], fileVersion)
	binary.LittleEndian.PutUint64(m[8:], pages)
	binary.LittleEndian.PutUint64(m[16:], pageSize)
	binary.LittleEndian.PutUint64(m[24:], shards)
	binary.LittleEndian.PutUint32(m[32:], crc32.ChecksumIEEE(m[:32]))
	return m
}

// TestDirManifestRejectsBadShardCounts: a manifest whose checksum is valid
// but whose shard count no OpenDir could have written must be ErrCorrupt,
// returned before any shard file is created — not a panic sizing the shard
// table, and not a half-created directory.
func TestDirManifestRejectsBadShardCounts(t *testing.T) {
	const pages, pageSize = 16, 64
	for _, tc := range []struct {
		name          string
		pages, shards uint64
	}{
		{"zero-shards", pages, 0},
		{"huge-shards", pages, 1 << 61},
		{"negative-shards", pages, 1 << 63},
		{"more-shards-than-pages", pages, 1000},
		{"empty-trailing-shards", pages, 10}, // 2 pages per shard fill only 8
		{"zero-pages", 0, 1},
		{"negative-pages", 1 << 63, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			root := t.TempDir()
			if err := os.WriteFile(filepath.Join(root, dirManifestName), manifestBytes(tc.pages, pageSize, tc.shards), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := OpenDir(root, pages, pageSize, 0); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("got %v, want ErrCorrupt", err)
			}
			ents, err := os.ReadDir(root)
			if err != nil {
				t.Fatal(err)
			}
			if len(ents) != 1 {
				t.Errorf("a rejected manifest left %d entries behind, want only the manifest", len(ents))
			}
		})
	}
}

// TestOpenDirSkipsEmptyShards: asking for a shard count that would leave
// trailing shards without pages creates only the shards that hold pages,
// and the manifest it writes reopens.
func TestOpenDirSkipsEmptyShards(t *testing.T) {
	root := t.TempDir()
	d, err := OpenDir(root, 16, 64, 10)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(d.shards); got != 8 {
		t.Errorf("16 pages over 10 requested shards opened %d shards, want 8", got)
	}
	fillPattern(t, d, 4)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d, err = OpenDir(root, 16, 64, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	checkPattern(t, d, 4)
}

// FuzzParseManifest fuzzes a manifest's fields past its checksum, which
// the harness recomputes: parsing must never panic, must fail only with
// ErrTruncated or ErrCorrupt, and must accept only splits in which every
// shard holds a page. A small accepted geometry must open.
func FuzzParseManifest(f *testing.F) {
	for _, m := range [][]byte{
		manifestBytes(16, 64, 16), manifestBytes(16, 64, 1000),
		manifestBytes(16, 64, 1<<61), manifestBytes(7, 4096, 4), {},
	} {
		f.Add(m)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) >= 36 {
			binary.LittleEndian.PutUint32(raw[32:], crc32.ChecksumIEEE(raw[:32]))
		}
		pages, pageSize, shards, err := parseManifest("fuzz", raw)
		if err != nil {
			if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("untyped error %v", err)
			}
			return
		}
		per := (pages-1)/shards + 1
		if pages <= 0 || shards <= 0 || shards > pages || (shards-1) >= (pages-1)/per+1 {
			t.Fatalf("accepted %d shards for %d pages", shards, pages)
		}
		if pages > 64 || pageSize <= 0 || pageSize > 4096 {
			return
		}
		root := t.TempDir()
		if err := os.WriteFile(filepath.Join(root, dirManifestName), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		d, err := OpenDir(root, pages, pageSize, 0)
		if err != nil {
			t.Fatalf("accepted manifest %d×%dB/%d shards does not open: %v", pages, pageSize, shards, err)
		}
		if len(d.shards) != shards {
			t.Errorf("opened %d shards, manifest declares %d", len(d.shards), shards)
		}
		d.Close()
	})
}
