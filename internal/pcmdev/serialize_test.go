package pcmdev

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"deuce/internal/backend"
)

// restoreCfg is the geometry the Restore tests snapshot and restore.
var restoreCfg = Config{Lines: 3, MetaBits: 33}

// filledDevice returns a restoreCfg device holding random cells.
func filledDevice(seed int64) *Device {
	d := MustNew(restoreCfg)
	rng := rand.New(rand.NewSource(seed))
	for l := 0; l < restoreCfg.Lines; l++ {
		data, meta := make([]byte, 64), make([]byte, 5)
		rng.Read(data)
		rng.Read(meta)
		d.Load(uint64(l), data, meta)
	}
	return d
}

// snapshot serializes d.
func snapshot(t testing.TB, d *Device) []byte {
	var buf bytes.Buffer
	if err := d.Serialize(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// cells returns every stored page of d, concatenated.
func cells(d *Device) []byte {
	var out []byte
	for l := 0; l < d.Lines(); l++ {
		data, meta := d.Peek(uint64(l))
		out = append(append(out, data...), meta...)
	}
	return out
}

// TestRestoreTypedErrors checks each malformed snapshot fails with its
// typed error and leaves the device's cells untouched.
func TestRestoreTypedErrors(t *testing.T) {
	good := snapshot(t, filledDevice(1))
	other := snapshot(t, MustNew(Config{Lines: 3, MetaBits: 32}))
	badMagic := bytes.Clone(good)
	badMagic[0] = 'X'
	for _, tc := range []struct {
		name string
		in   []byte
		want error
	}{
		{"empty", nil, backend.ErrTruncated},
		{"short magic", good[:2], backend.ErrTruncated},
		{"bad magic", badMagic, backend.ErrCorrupt},
		{"short header", good[:4+12], backend.ErrTruncated},
		{"geometry", other, backend.ErrGeometry},
		{"no pages", good[:4+24], backend.ErrTruncated},
		{"last page short", good[:len(good)-1], backend.ErrTruncated},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := filledDevice(2)
			before := cells(d)
			err := d.Restore(bytes.NewReader(tc.in))
			if !errors.Is(err, tc.want) {
				t.Fatalf("Restore = %v, want %v", err, tc.want)
			}
			if !bytes.Equal(cells(d), before) {
				t.Error("failed Restore changed the device's cells")
			}
		})
	}
}

// FuzzRestore feeds arbitrary bytes to Restore: it must never panic, every
// error must be one of the three typed kinds and leave the cells as they
// were, and a success must install exactly the snapshot's pages (the
// first seed is the round trip of a valid snapshot).
func FuzzRestore(f *testing.F) {
	good := snapshot(f, filledDevice(1))
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add(good[:4])
	f.Add([]byte("PCM2"))
	f.Add(snapshot(f, MustNew(Config{Lines: 4, MetaBits: 33})))
	f.Fuzz(func(t *testing.T, in []byte) {
		d := filledDevice(2)
		before := cells(d)
		if err := d.Restore(bytes.NewReader(in)); err != nil {
			if !errors.Is(err, backend.ErrCorrupt) && !errors.Is(err, backend.ErrGeometry) && !errors.Is(err, backend.ErrTruncated) {
				t.Fatalf("untyped Restore error: %v", err)
			}
			if !bytes.Equal(cells(d), before) {
				t.Fatal("failed Restore changed the device's cells")
			}
			return
		}
		const hdr = 4 + 24
		if want := in[hdr : hdr+restoreCfg.Lines*d.Config().PageBytes()]; !bytes.Equal(cells(d), want) {
			t.Fatal("restored cells differ from the snapshot's pages")
		}
	})
}
