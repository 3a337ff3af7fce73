package deuce

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"deuce/internal/core"
)

func TestBackendOptionValidation(t *testing.T) {
	if _, err := New(Options{Lines: 16, Backend: FileBackend}); err == nil ||
		!strings.Contains(err.Error(), "Options.Dir") {
		t.Errorf("file backend without Dir: got %v", err)
	}
	if _, err := New(Options{Lines: 16, Backend: FileBackend, Dir: t.TempDir(),
		WearLeveling: VerticalWL}); err == nil ||
		!strings.Contains(err.Error(), "wear leveling") {
		t.Errorf("file backend + wear leveling: got %v", err)
	}
	if _, err := New(Options{Lines: 16, Backend: "floppy", Dir: t.TempDir()}); err == nil ||
		!strings.Contains(err.Error(), "floppy") {
		t.Errorf("unknown backend: got %v", err)
	}
}

// A durable Memory must survive the full power cycle: write, Sync,
// PersistToFile, Close, then reopen on the same directory, RestoreFromFile,
// and find every line plus continued counters — for file and dir backends.
func TestBackendPowerCycle(t *testing.T) {
	for _, be := range []Backend{FileBackend, DirBackend} {
		be := be
		t.Run(string(be), func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			snap := filepath.Join(dir, "state.snap")
			opts := Options{Lines: 32, Scheme: DEUCE, Backend: be, Dir: dir}
			m, err := New(opts)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(11))
			shadow := make([][]byte, 32)
			for i := range shadow {
				shadow[i] = make([]byte, 64)
			}
			for i := 0; i < 400; i++ {
				l := rng.Intn(32)
				shadow[l][rng.Intn(64)] = byte(rng.Int())
				m.Write(uint64(l), shadow[l])
			}
			if err := m.Sync(); err != nil {
				t.Fatal(err)
			}
			if err := m.PersistToFile(snap); err != nil {
				t.Fatal(err)
			}
			if err := m.Close(); err != nil {
				t.Fatal(err)
			}

			m2, err := New(opts)
			if err != nil {
				t.Fatal(err)
			}
			defer m2.Close()
			if err := m2.RestoreFromFile(snap); err != nil {
				t.Fatal(err)
			}
			for l := uint64(0); l < 32; l++ {
				if !bytes.Equal(m2.Read(l), shadow[l]) {
					t.Fatalf("line %d lost across restart", l)
				}
			}
			// The restored memory keeps operating: counters continued, no
			// pad-reuse corruption across the restart boundary.
			for i := 0; i < 100; i++ {
				l := rng.Intn(32)
				shadow[l][rng.Intn(64)] = byte(rng.Int())
				m2.Write(uint64(l), shadow[l])
				if !bytes.Equal(m2.Read(uint64(l)), shadow[l]) {
					t.Fatalf("restored memory corrupt at post-restart write %d", i)
				}
			}
		})
	}
}

// Reopening a directory with different geometry must fail with the typed
// geometry error, not silently reinterpret the stored pages.
func TestBackendGeometryMismatchOnReopen(t *testing.T) {
	dir := t.TempDir()
	m, err := New(Options{Lines: 32, Backend: FileBackend, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := New(Options{Lines: 64, Backend: FileBackend, Dir: dir}); err == nil {
		t.Fatal("geometry change on reopen accepted")
	}
}

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snap")

	// A failing writer must leave no file and no temp droppings.
	boom := errors.New("boom")
	err := writeFileAtomic(path, func(io.Writer) error { return boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	ents, _ := os.ReadDir(dir)
	if len(ents) != 0 {
		t.Fatalf("failed write left %d files behind", len(ents))
	}

	// A successful write lands intact.
	if err := writeFileAtomic(path, func(w io.Writer) error {
		_, err := w.Write([]byte("v1"))
		return err
	}); err != nil {
		t.Fatal(err)
	}

	// A crash mid-rewrite (modelled as a failing writer) leaves the previous
	// snapshot readable.
	if err := writeFileAtomic(path, func(w io.Writer) error {
		if _, err := w.Write([]byte("half-written")); err != nil {
			return err
		}
		return boom
	}); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	got, err := os.ReadFile(path)
	if err != nil || string(got) != "v1" {
		t.Fatalf("previous snapshot damaged: %q, %v", got, err)
	}
	ents, _ = os.ReadDir(dir)
	if len(ents) != 1 {
		names := make([]string, len(ents))
		for i, e := range ents {
			names[i] = e.Name()
		}
		t.Fatalf("temp droppings after failed rewrite: %v", names)
	}
}

// A snapshot from one scheme must not restore into another; the error names
// both schemes (the DST2 framing carries the kind in the clear).
func TestRestoreNamesSchemeMismatch(t *testing.T) {
	m := MustNew(Options{Lines: 16, Scheme: DEUCE})
	m.Write(0, make([]byte, 64))
	var buf bytes.Buffer
	if err := m.Persist(&buf); err != nil {
		t.Fatal(err)
	}
	m2 := MustNew(Options{Lines: 16, Scheme: EncrDCW})
	err := m2.RestoreState(&buf)
	if err == nil {
		t.Fatal("cross-scheme restore accepted")
	}
	for _, want := range []string{"DEUCE", "Encr"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %s", err, want)
		}
	}
	if !errors.Is(err, core.ErrStateMismatch) {
		t.Errorf("error %q does not wrap core.ErrStateMismatch", err)
	}
}

func ExampleMemory_PersistToFile() {
	dir, _ := os.MkdirTemp("", "deuce")
	defer os.RemoveAll(dir)

	opts := Options{Lines: 64, Scheme: DEUCE, Backend: FileBackend, Dir: dir}
	m := MustNew(opts)
	line := make([]byte, 64)
	copy(line, "survives a restart")
	m.Write(7, line)
	m.Sync()                                        // cells + counters now durable
	m.PersistToFile(filepath.Join(dir, "ctl.snap")) // controller state snapshot
	m.Close()

	m2 := MustNew(opts) // reopens dir/array.pg and dir/counters.pg
	defer m2.Close()
	m2.RestoreFromFile(filepath.Join(dir, "ctl.snap"))
	fmt.Println(string(bytes.TrimRight(m2.Read(7), "\x00")))
	// Output: survives a restart
}
