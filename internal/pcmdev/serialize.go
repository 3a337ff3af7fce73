package pcmdev

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"deuce/internal/backend"
)

// serialization format magic, versioned.
var devMagic = [4]byte{'P', 'C', 'M', '1'}

// Snapshottable returns why Serialize and Restore refuse the device, or
// nil. The format carries cells only: not a remap's registers, and a
// restore behind an observer's back would replace the pages it vouches for.
func (d *Device) Snapshottable() error {
	if d.rm != nil || d.obs != nil {
		return errors.New("pcmdev: a remapped or observed device's state is not part of the snapshot format")
	}
	return nil
}

// Serialize writes the array's persistent state — the stored cells and
// metadata cells, exactly what survives power-down on a real DIMM — to w.
// Statistics and wear counters are volatile controller state and are not
// serialized, and neither are a remapped device's registers, so a
// device refuses whenever Snapshottable does.
func (d *Device) Serialize(w io.Writer) error {
	if err := d.Snapshottable(); err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(devMagic[:]); err != nil {
		return fmt.Errorf("pcmdev: %w", err)
	}
	hdr := []uint64{uint64(d.cfg.Lines), uint64(d.cfg.LineBytes), uint64(d.cfg.MetaBits)}
	for _, v := range hdr {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return fmt.Errorf("pcmdev: %w", err)
		}
	}
	// Each page is already laid out as [data][meta], the wire order.
	for line := 0; line < d.cfg.Lines; line++ {
		if _, err := bw.Write(d.page(uint64(line))); err != nil {
			return fmt.Errorf("pcmdev: line %d: %w", line, err)
		}
	}
	return bw.Flush()
}

// Restore loads state written by Serialize into this array. The geometry
// must match exactly; contents are replaced, statistics are untouched. A
// device refuses whenever Snapshottable does.
//
// Restore is atomic: it reads every page into a staging buffer before it
// touches the device, so a failed Restore leaves the cells as they were.
// Every failure is typed: backend.ErrCorrupt for a bad magic,
// backend.ErrGeometry for a geometry mismatch and backend.ErrTruncated for
// a snapshot that ends (or fails to read) early.
func (d *Device) Restore(r io.Reader) error {
	if err := d.Snapshottable(); err != nil {
		return err
	}
	br := bufio.NewReader(r)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return fmt.Errorf("pcmdev: reading header: %w: %w", backend.ErrTruncated, err)
	}
	if magic != devMagic {
		return fmt.Errorf("pcmdev: bad magic %q: %w", magic, backend.ErrCorrupt)
	}
	var hdr [3]uint64 // lines, line bytes, metadata bits
	if err := binary.Read(br, binary.LittleEndian, &hdr); err != nil {
		return fmt.Errorf("pcmdev: reading geometry: %w: %w", backend.ErrTruncated, err)
	}
	if hdr != [3]uint64{uint64(d.cfg.Lines), uint64(d.cfg.LineBytes), uint64(d.cfg.MetaBits)} {
		return fmt.Errorf("pcmdev: snapshot %dx%dB+%db, device %dx%dB+%db: %w",
			hdr[0], hdr[1], hdr[2], d.cfg.Lines, d.cfg.LineBytes, d.cfg.MetaBits, backend.ErrGeometry)
	}
	pageBytes := d.cfg.PageBytes()
	stage := make([]byte, d.cfg.Lines*pageBytes)
	if n, err := io.ReadFull(br, stage); err != nil {
		return fmt.Errorf("pcmdev: snapshot holds %d of %d page bytes: %w: %w", n, len(stage), backend.ErrTruncated, err)
	}
	for line := 0; line < d.cfg.Lines; line++ {
		p := d.page(uint64(line))
		copy(p, stage[line*pageBytes:])
		d.flushPage(uint64(line), p)
	}
	return nil
}
