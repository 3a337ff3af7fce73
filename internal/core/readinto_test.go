package core

import (
	"bytes"
	"testing"
)

// TestReadIntoStatsMatchRead: one ReadInto counts exactly one device read,
// on the bare device and through every wrapped array (each wrapper reads
// through the device below it and adds no read of its own), so sharded
// front ends that read through ReadInto merge to the same Stats a
// sequential run produces.
func TestReadIntoStatsMatchRead(t *testing.T) {
	for _, leg := range arrayLegs {
		t.Run(leg.name, func(t *testing.T) {
			s, err := New(KindDeuce, Params{Lines: 8, MakeArray: leg.make})
			if err != nil {
				t.Fatal(err)
			}
			buf := make([]byte, 64)
			s.Write(3, buf)
			before := s.Device().Stats().Reads
			s.ReadInto(3, buf)
			if got := s.Device().Stats().Reads - before; got != 1 {
				t.Fatalf("one ReadInto counted %d device reads, want 1", got)
			}
		})
	}
}

// TestReadIntoZeroAllocs pins the point of the API: on a bare device every
// scheme's ReadInto performs zero allocations per call once the line has
// been touched (first touch lazily installs the zero image, which is
// warmup, not steady state).
func TestReadIntoZeroAllocs(t *testing.T) {
	for _, k := range allKinds {
		t.Run(string(k), func(t *testing.T) {
			s, err := New(k, Params{Lines: 8})
			if err != nil {
				t.Fatal(err)
			}
			data := bytes.Repeat([]byte{0xA5}, 64)
			buf := make([]byte, 64)
			for line := uint64(0); line < 8; line++ {
				s.Write(line, data)
				s.ReadInto(line, buf)
			}
			line := uint64(0)
			if avg := testing.AllocsPerRun(200, func() {
				s.ReadInto(line, buf)
				line = (line + 1) % 8
			}); avg != 0 {
				t.Fatalf("ReadInto allocates %.1f per op, want 0", avg)
			}
		})
	}
}
