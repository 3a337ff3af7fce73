package core

import (
	"deuce/internal/fnw"
	"deuce/internal/pcmdev"
)

// PlainDCW is unencrypted memory with Data Comparison Write: the stored
// image is the plaintext itself and the device programs only changed cells.
// This is the paper's "NoEncr DCW" reference (Figure 5), the lower bound
// every other scheme is measured against.
type PlainDCW struct {
	*base
}

// NewPlainDCW constructs an unencrypted DCW memory.
func NewPlainDCW(p Params) (*PlainDCW, error) {
	b, err := newBase(p, "NoEncr_DCW", 0, false)
	if err != nil {
		return nil, err
	}
	return &PlainDCW{base: b}, nil
}

// OverheadBits implements Scheme.
func (s *PlainDCW) OverheadBits() int { return 0 }

// Install implements Scheme.
func (s *PlainDCW) Install(line uint64, plaintext []byte) {
	s.checkPlain(plaintext)
	s.markInstalled(line)
	s.dev.Load(line, plaintext, nil)
}

// Write implements Scheme.
func (s *PlainDCW) Write(line uint64, plaintext []byte) pcmdev.WriteResult {
	s.checkPlain(plaintext)
	s.inited.Set(int(line), true)
	return s.observe(line, s.dev.Write(line, plaintext, nil), false)
}

// ReadInto implements Scheme.
func (s *PlainDCW) ReadInto(line uint64, dst []byte) {
	s.checkDst(dst)
	s.dev.ReadInto(line, dst, nil)
}

// PlainFNW is unencrypted memory with Flip-N-Write at the configured word
// granularity — the paper's "NoEncr FNW" reference (Figures 5 and 10),
// representing the best a write-optimized but insecure PCM system achieves.
type PlainFNW struct {
	*base
	codec *fnw.Codec
}

// NewPlainFNW constructs an unencrypted FNW memory.
func NewPlainFNW(p Params) (*PlainFNW, error) {
	p.setDefaults()
	codec, err := fnw.New(p.WordBytes)
	if err != nil {
		return nil, err
	}
	b, err := newBase(p, "NoEncr_FNW", codec.FlipBits(p.LineBytes), false)
	if err != nil {
		return nil, err
	}
	return &PlainFNW{base: b, codec: codec}, nil
}

// OverheadBits implements Scheme.
func (s *PlainFNW) OverheadBits() int { return s.codec.FlipBits(s.p.LineBytes) }

// Install implements Scheme.
func (s *PlainFNW) Install(line uint64, plaintext []byte) {
	s.checkPlain(plaintext)
	s.markInstalled(line)
	s.dev.Load(line, plaintext, make([]byte, metaBytes(s.codec.FlipBits(s.p.LineBytes))))
}

// Write implements Scheme. Allocation-free in steady state.
func (s *PlainFNW) Write(line uint64, plaintext []byte) pcmdev.WriteResult {
	s.checkPlain(plaintext)
	s.inited.Set(int(line), true)
	s.dev.PeekInto(line, s.scr.oldData, s.scr.oldMeta)
	s.codec.EncodeInto(s.scr.newData, s.scr.newMeta, s.scr.oldData, s.scr.oldMeta, plaintext)
	return s.observe(line, s.dev.Write(line, s.scr.newData, s.scr.newMeta), false)
}

// ReadInto implements Scheme.
func (s *PlainFNW) ReadInto(line uint64, dst []byte) {
	s.checkDst(dst)
	s.dev.ReadInto(line, s.scr.oldData, s.scr.oldMeta)
	s.codec.DecodeInto(dst, s.scr.oldData, s.scr.oldMeta)
}
