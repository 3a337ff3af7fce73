package core

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"deuce/internal/backend"
	"deuce/internal/pcmdev"
)

// Persistent is the power-down/power-up contract: schemes serialize the
// state a real NVM system must keep across power loss — the array's cells
// and metadata plus the (plain-text, non-volatile) encryption counters.
// Restoring into a scheme with a different key, geometry or kind fails
// loudly rather than decrypting garbage.
//
// Every scheme in this package implements Persistent through the shared
// base. i-NVMM wraps it to encrypt its hot set first (its power-down
// obligation); see INVMM.SaveState.
type Persistent interface {
	// SaveState writes the memory's persistent image to w.
	SaveState(w io.Writer) error
	// LoadState replaces the memory's state with an image written by
	// SaveState on an identically-configured scheme.
	LoadState(r io.Reader) error
}

// Snapshot framing, version 2: magic, a length-prefixed scheme-kind string
// in the clear (so a mismatch can name both kinds instead of hiding inside
// a digest), then the geometry header. Version 1 folded the scheme into the
// key digest and reported every mismatch as one opaque error.
var stateMagic = [4]byte{'D', 'S', 'T', '2'}

var stateMagicV1 = [4]byte{'D', 'S', 'T', '1'}

// ErrStateMismatch is wrapped by every LoadState error for a well-formed
// snapshot that a differently configured memory wrote: another scheme
// kind, other scheme parameters (epoch, word size, counter width) or
// another key. A snapshot of another line count or line size wraps
// backend.ErrGeometry instead.
var ErrStateMismatch = errors.New("core: snapshot from a differently configured memory")

// stateHeader pins everything that must match between save and load.
type stateHeader struct {
	Lines       uint64
	LineBytes   uint64
	Epoch       uint64
	WordBytes   uint64
	CounterBits uint64
	KeyDigest   [8]byte
}

func (b *base) header() stateHeader {
	sum := sha256.Sum256(append([]byte(b.name+"\x00"), b.p.Key...))
	var h stateHeader
	h.Lines = uint64(b.p.Lines)
	h.LineBytes = uint64(b.p.LineBytes)
	h.Epoch = uint64(b.p.EpochInterval)
	h.WordBytes = uint64(b.p.WordBytes)
	h.CounterBits = uint64(b.p.CounterBits)
	copy(h.KeyDigest[:], sum[:8])
	return h
}

// checkHeader compares a snapshot header against this scheme field by
// field, so the error names exactly what differs — both geometries, both
// scheme kinds — instead of a generic "state mismatch". A line-count or
// line-size mismatch wraps backend.ErrGeometry, as pcmdev.Restore's does;
// a scheme, parameter or key mismatch wraps ErrStateMismatch.
func (b *base) checkHeader(gotName string, h stateHeader) error {
	if gotName != b.name {
		return fmt.Errorf("core: snapshot holds scheme %q, this memory runs %q: %w", gotName, b.name, ErrStateMismatch)
	}
	want := b.header()
	if h.Lines != want.Lines || h.LineBytes != want.LineBytes {
		return fmt.Errorf("core: geometry mismatch: snapshot %d lines × %dB, memory %d lines × %dB: %w",
			h.Lines, h.LineBytes, want.Lines, want.LineBytes, backend.ErrGeometry)
	}
	if h.Epoch != want.Epoch || h.WordBytes != want.WordBytes || h.CounterBits != want.CounterBits {
		return fmt.Errorf("core: scheme-parameter mismatch: snapshot epoch=%d word=%dB ctr=%db, memory epoch=%d word=%dB ctr=%db: %w",
			h.Epoch, h.WordBytes, h.CounterBits, want.Epoch, want.WordBytes, want.CounterBits, ErrStateMismatch)
	}
	if h.KeyDigest != want.KeyDigest {
		return fmt.Errorf("core: snapshot was written under a different key (digest %x, memory key digest %x): %w",
			h.KeyDigest, want.KeyDigest, ErrStateMismatch)
	}
	return nil
}

// device returns the array as the device whose cells the snapshot
// carries, rejecting any other array and a device pcmdev will not
// snapshot (wear-leveled or guarded).
func (b *base) device() (*pcmdev.Device, error) {
	dev, ok := b.dev.(*pcmdev.Device)
	if !ok {
		return nil, fmt.Errorf("core: persistence requires a pcmdev.Device, not a %T", b.dev)
	}
	if err := dev.Snapshottable(); err != nil {
		return nil, fmt.Errorf("core: persistence requires a bare array: %w", err)
	}
	return dev, nil
}

// SaveState implements Persistent. The snapshot names the scheme, so it
// cannot be restored into a different protocol.
func (b *base) SaveState(w io.Writer) error {
	dev, err := b.device()
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(stateMagic[:]); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if len(b.name) > 0xFFFF {
		return fmt.Errorf("core: scheme name %q too long for snapshot framing", b.name)
	}
	if err := binary.Write(bw, binary.LittleEndian, uint16(len(b.name))); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if _, err := bw.WriteString(b.name); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if err := binary.Write(bw, binary.LittleEndian, b.header()); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	// Touched-line bitmap (lazily-installed lines must stay lazy). The
	// vector's backing bytes are already in the format's little-endian
	// bit order.
	if _, err := bw.Write(b.inited.Bytes()); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if err := b.ctrs.Serialize(w); err != nil {
		return err
	}
	return dev.Serialize(w)
}

// LoadState implements Persistent. It is atomic: a snapshot that fails to
// parse anywhere installs nothing. Framing failures are typed like
// pcmdev.Restore's and ctrstore.Stage's: backend.ErrTruncated for a
// snapshot that ends early, backend.ErrCorrupt for a bad (or retired v1)
// magic, backend.ErrGeometry for a snapshot of another line count or line
// size, and ErrStateMismatch for one of another scheme, parameter set or
// key.
func (b *base) LoadState(r io.Reader) error {
	dev, err := b.device()
	if err != nil {
		return err
	}
	br := bufio.NewReader(r)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return fmt.Errorf("core: reading state magic: %w: %w", backend.ErrTruncated, err)
	}
	if magic == stateMagicV1 {
		return fmt.Errorf("core: snapshot uses the retired v1 framing %q (no scheme-kind field); re-save it with this version: %w", magic, backend.ErrCorrupt)
	}
	if magic != stateMagic {
		return fmt.Errorf("core: bad state magic %q: %w", magic, backend.ErrCorrupt)
	}
	var nameLen uint16
	if err := binary.Read(br, binary.LittleEndian, &nameLen); err != nil {
		return fmt.Errorf("core: reading scheme name length: %w: %w", backend.ErrTruncated, err)
	}
	nameBuf := make([]byte, nameLen)
	if _, err := io.ReadFull(br, nameBuf); err != nil {
		return fmt.Errorf("core: reading scheme name: %w: %w", backend.ErrTruncated, err)
	}
	var h stateHeader
	if err := binary.Read(br, binary.LittleEndian, &h); err != nil {
		return fmt.Errorf("core: reading state header: %w: %w", backend.ErrTruncated, err)
	}
	if err := b.checkHeader(string(nameBuf), h); err != nil {
		return err
	}
	// Stage the bitmap and the counters, and install them only once the
	// cells (restored last, atomically) have parsed too: a snapshot cut
	// anywhere leaves the memory as it was, never a new bitmap or new
	// counters over old cells.
	inited := make([]byte, len(b.inited.Bytes()))
	if _, err := io.ReadFull(br, inited); err != nil {
		return fmt.Errorf("core: reading the touched-line bitmap: %w: %w", backend.ErrTruncated, err)
	}
	installCtrs, err := b.ctrs.Stage(br)
	if err != nil {
		return err
	}
	if err := dev.Restore(br); err != nil {
		return err
	}
	installCtrs()
	copy(b.inited.Bytes(), inited)
	return nil
}

// SaveState implements Persistent: i-NVMM must encrypt its hot set before
// the image is durable (the power-down obligation of §7.2) — a snapshot
// with plain-text lines would defeat the stolen-DIMM protection the
// scheme exists for.
func (s *INVMM) SaveState(w io.Writer) error {
	if _, err := s.PowerDown(); err != nil {
		return err
	}
	return s.base.SaveState(w)
}

// LoadState implements Persistent. After a power cycle every line is cold
// (encrypted), which is exactly the post-PowerDown state SaveState wrote.
func (s *INVMM) LoadState(r io.Reader) error {
	if err := s.base.LoadState(r); err != nil {
		return err
	}
	s.lru = newLineLRU(s.p.Lines)
	return nil
}
