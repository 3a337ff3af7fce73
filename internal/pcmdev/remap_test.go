package pcmdev

import (
	"bytes"
	"fmt"
	"testing"
)

// shiftRemap keeps every line in the row after it, rotated by k cells,
// and counts the writes it is told of.
type shiftRemap struct {
	k      uint64
	writes int
}

func (r *shiftRemap) Row(line uint64) uint64 { return line + 1 }
func (r *shiftRemap) Rotation(uint64) uint64 { return r.k }
func (r *shiftRemap) Wrote()                 { r.writes++ }

func TestNewRemappedValidation(t *testing.T) {
	if _, err := NewRemapped(Config{Lines: 4}, 3, &shiftRemap{}, false); err == nil {
		t.Error("accepted fewer rows than lines")
	}
	if _, err := NewRemapped(Config{Lines: 4, LineBytes: 10}, 5, &shiftRemap{}, false); err == nil {
		t.Error("accepted a bad geometry")
	}
}

// A remapped device reports its logical geometry, stores a line in its
// row in logical order, counts per physical row, tells the remap of
// every Write and WriteTracked (not of Loads or reads), and programs the
// cells rotated: a flip of logical cell 0 lands on cell k.
func TestRemappedDevice(t *testing.T) {
	r := &shiftRemap{k: 3}
	d, err := NewRemapped(Config{Lines: 4, MetaBits: 8, TrackPerLineWear: true}, 5, r, false)
	if err != nil {
		t.Fatal(err)
	}
	if d.Snapshottable() == nil || d.Config().Lines != 4 || d.Lines() != 4 || len(d.LineWrites()) != 5 {
		t.Fatalf("geometry: snapshottable %v, %d lines, %d rows", d.Snapshottable(), d.Config().Lines, len(d.LineWrites()))
	}
	data, meta := make([]byte, 64), []byte{0x80}
	data[0] = 1
	res := d.Write(2, data, meta)
	if res.DataFlips != 2 || res.MetaFlips != 0 || res.Slots != 1 || res.SlotFlips[0] != 2 {
		t.Errorf("write result %+v: the metadata flip at cell 519 should rotate to data cell 2", res)
	}
	if d.LineWrites()[3] != 1 || d.LineWear(3)[3] != 1 || d.LineWear(3)[2] != 1 {
		t.Error("the write was not counted on row 3 at cells 2 and 3")
	}
	gd, gm := d.Peek(2)
	if !bytes.Equal(gd, data) || !bytes.Equal(gm, meta) {
		t.Error("stored image is not the logical image")
	}
	d.Load(1, data, meta)
	d.ReadInto(1, gd, gm)
	if r.writes != 1 {
		t.Errorf("remap told of %d writes, want 1", r.writes)
	}
	for _, op := range []func(){
		func() { d.Write(4, data, meta) },
		func() { d.PeekInto(4, gd, gm) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("out-of-range logical line did not panic")
				}
			}()
			op()
		}()
	}
}

// obsLog records an observer's calls as "check row" and "stored row".
type obsLog []string

func (l *obsLog) Check(row uint64, _ []byte)  { *l = append(*l, fmt.Sprint("check ", row)) }
func (l *obsLog) Stored(row uint64, _ []byte) { *l = append(*l, fmt.Sprint("stored ", row)) }

// The observer checks the rows a move or an exchange copies before it
// copies them, and is told of each placement once, whether it is free,
// programs cells or programs none.
func TestObserverSeesMoves(t *testing.T) {
	for _, free := range []bool{false, true} {
		d, err := NewRemapped(Config{Lines: 2, MetaBits: 8}, 3, &shiftRemap{}, free)
		if err != nil {
			t.Fatal(err)
		}
		data := make([]byte, 64)
		data[5] = 0x5a
		d.Write(0, data, []byte{1})
		var log obsLog
		if err := d.Observe(&log); err != nil || d.Observe(&log) == nil {
			t.Fatalf("free=%v: Observe: %v, or a second observer was taken", free, err)
		}
		log = nil
		d.Move(0, 0) // programs row 1 back to zeros, unless free
		d.Move(0, 0) // programs nothing
		d.Exchange(0, 1)
		want := []string{"check 0", "stored 1", "check 0", "stored 1", "check 1", "check 2", "stored 1", "stored 2"}
		if fmt.Sprint(log) != fmt.Sprint(want) {
			t.Errorf("free=%v: observer saw %v, want %v", free, log, want)
		}
	}
}

// A remapped device's registers are not in the snapshot format.
func TestRemappedRefusesSnapshot(t *testing.T) {
	d, err := NewRemapped(Config{Lines: 2}, 3, &shiftRemap{}, true)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := d.Serialize(&buf); err == nil {
		t.Error("Serialize accepted a remapped device")
	}
	if err := MustNew(Config{Lines: 2}).Serialize(&buf); err != nil {
		t.Fatal(err)
	}
	if err := d.Restore(&buf); err == nil {
		t.Error("Restore accepted a remapped device")
	}
}
