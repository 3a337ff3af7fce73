package core

import (
	"deuce/internal/fnw"
	"deuce/internal/pcmdev"
)

// EncrDCW is the baseline secure memory of the paper (§2.2–§2.5): whole-line
// counter-mode encryption. Every write increments the line counter and
// re-encrypts the full line with a fresh one-time pad, so the stored image
// re-randomizes and ~50% of cells program on every write regardless of how
// little the plaintext changed — the problem DEUCE exists to fix.
type EncrDCW struct {
	*base
}

// NewEncrDCW constructs the baseline encrypted memory.
func NewEncrDCW(p Params) (*EncrDCW, error) {
	b, err := newBase(p, "Encr_DCW", 0, false)
	if err != nil {
		return nil, err
	}
	s := &EncrDCW{base: b}
	s.install = s.Install
	return s, nil
}

// OverheadBits implements Scheme.
func (s *EncrDCW) OverheadBits() int { return 0 }

// Install implements Scheme.
func (s *EncrDCW) Install(line uint64, plaintext []byte) {
	s.checkPlain(plaintext)
	s.markInstalled(line)
	s.dev.Load(line, s.gen.Encrypt(line, 0, plaintext), nil)
}

// Write implements Scheme. Allocation-free in steady state: the fresh
// ciphertext is built in the scheme's scratch buffer.
func (s *EncrDCW) Write(line uint64, plaintext []byte) pcmdev.WriteResult {
	s.checkPlain(plaintext)
	s.initLine(line)
	ctr, _ := s.ctrs.Increment(line)
	s.gen.EncryptInto(s.scr.newData, line, ctr, plaintext)
	return s.observe(line, s.dev.Write(line, s.scr.newData, nil), false)
}

// ReadInto implements Scheme.
func (s *EncrDCW) ReadInto(line uint64, dst []byte) {
	s.checkDst(dst)
	s.initLine(line)
	s.dev.ReadInto(line, s.scr.oldData, nil)
	s.gen.DecryptInto(dst, line, s.ctrs.Get(line), s.scr.oldData)
}

// EncrFNW is the baseline encrypted memory with a Flip-N-Write stage between
// the ciphertext and the array (the paper's "Encr FNW", 43% flips): since
// the fresh ciphertext is uniformly random relative to the stored image, FNW
// can only shave the flips from 50% to ~43%.
type EncrFNW struct {
	*base
	codec *fnw.Codec
}

// NewEncrFNW constructs encrypted memory with an FNW stage.
func NewEncrFNW(p Params) (*EncrFNW, error) {
	p.setDefaults()
	codec, err := fnw.New(p.WordBytes)
	if err != nil {
		return nil, err
	}
	b, err := newBase(p, "Encr_FNW", codec.FlipBits(p.LineBytes), false)
	if err != nil {
		return nil, err
	}
	s := &EncrFNW{base: b, codec: codec}
	s.install = s.Install
	return s, nil
}

// OverheadBits implements Scheme.
func (s *EncrFNW) OverheadBits() int { return s.codec.FlipBits(s.p.LineBytes) }

// Install implements Scheme.
func (s *EncrFNW) Install(line uint64, plaintext []byte) {
	s.checkPlain(plaintext)
	s.markInstalled(line)
	ct := s.gen.Encrypt(line, 0, plaintext)
	s.dev.Load(line, ct, make([]byte, metaBytes(s.codec.FlipBits(s.p.LineBytes))))
}

// Write implements Scheme. Allocation-free in steady state; the fresh
// ciphertext borrows the otherwise-unused oldPlain scratch (nothing on this
// path decrypts).
func (s *EncrFNW) Write(line uint64, plaintext []byte) pcmdev.WriteResult {
	s.checkPlain(plaintext)
	s.initLine(line)
	ctr, _ := s.ctrs.Increment(line)
	ct := s.scr.oldPlain
	s.gen.EncryptInto(ct, line, ctr, plaintext)
	s.dev.PeekInto(line, s.scr.oldData, s.scr.oldMeta)
	s.codec.EncodeInto(s.scr.newData, s.scr.newMeta, s.scr.oldData, s.scr.oldMeta, ct)
	return s.observe(line, s.dev.Write(line, s.scr.newData, s.scr.newMeta), false)
}

// ReadInto implements Scheme.
func (s *EncrFNW) ReadInto(line uint64, dst []byte) {
	s.checkDst(dst)
	s.initLine(line)
	s.dev.ReadInto(line, s.scr.oldData, s.scr.oldMeta)
	s.codec.DecodeInto(s.scr.oldPlain, s.scr.oldData, s.scr.oldMeta)
	s.gen.DecryptInto(dst, line, s.ctrs.Get(line), s.scr.oldPlain)
}
