package core

import (
	"deuce/internal/bitutil"
	"deuce/internal/pcmdev"
)

// Secret implements a SECRET-style scheme (Swami & Mohanram's follow-up to
// DEUCE): on top of DEUCE's dual-counter word re-encryption, words whose
// *plaintext* is zero are stored as literal zero cells with a per-word
// zero flag instead of as ciphertext. Real memory images are zero-heavy
// (cleared pages, sparse structures, padding), and an encrypted zero word
// is indistinguishable from random — so every zero-to-zero rewrite under
// plain DEUCE still pays for re-encryption once the word is marked
// modified, while SECRET stores it for free.
//
// The trade-off is explicit and inherent: the zero flags leak which words
// are zero to a bus snooper or DIMM thief — strictly more leakage than
// DEUCE's which-words-changed (§4.3.5), which is why this is a separate
// scheme rather than a DEUCE default. Non-zero words keep the full
// counter-mode guarantees.
//
// Metadata: 32 modified bits followed by 32 zero flags (64 bits per line
// at the default 2-byte words).
type Secret struct {
	*base
	epochMask uint64
	meta      fieldPair // modified bits, then zero flags
	oldFields []byte    // split scratch for the stored metadata
	newFields []byte    // split scratch for the metadata to be written
}

// NewSecret constructs a SECRET-style memory.
func NewSecret(p Params) (*Secret, error) {
	p.setDefaults()
	words := p.LineBytes / p.WordBytes
	b, err := newBase(p, "SECRET", 2*words, false)
	if err != nil {
		return nil, err
	}
	meta := newFieldPair(words)
	s := &Secret{
		base:      b,
		epochMask: uint64(p.EpochInterval - 1),
		meta:      meta,
		oldFields: meta.scratch(),
		newFields: meta.scratch(),
	}
	s.install = s.Install
	return s, nil
}

// OverheadBits implements Scheme: modified bits plus zero flags.
func (s *Secret) OverheadBits() int { return 2 * s.words() }

// encodeLineInto produces the stored image for a plaintext under the given
// counter-derived pads and the epoch's modified bits: zero words store as
// zeros, modified non-zero words as LCTR ciphertext, untouched non-zero
// words keep their previous cells. cells must be line-sized and meta a
// whole metadata image; neither may alias the inputs. oldMod is the stored
// modified-bits field (unused on a full re-encryption). The padL scratch
// carries the LCTR pad.
func (s *Secret) encodeLineInto(cells, meta []byte, line, ctr uint64, fullReencrypt bool, oldCells, oldMod, oldPlain, plaintext []byte) {
	w := s.p.WordBytes
	words := s.words()

	newMod, newZero := s.meta.split(meta, s.newFields)
	clear(newMod)
	clear(newZero)
	if !fullReencrypt {
		copy(newMod, oldMod)
		for i := 0; i < words; i++ {
			if !bitutil.WordsEqual(oldPlain, plaintext, w, i) {
				bitutil.SetBit(newMod, i, true)
			}
		}
	}
	lpad := s.scr.padL
	s.gen.PadInto(lpad, line, ctr)

	copy(cells, oldCells)
	for i := 0; i < words; i++ {
		off := i * w
		isZero := true
		for j := off; j < off+w; j++ {
			if plaintext[j] != 0 {
				isZero = false
				break
			}
		}
		if isZero {
			bitutil.SetBit(newZero, i, true)
			for j := off; j < off+w; j++ {
				cells[j] = 0
			}
			continue
		}
		if fullReencrypt || bitutil.GetBit(newMod, i) {
			for j := off; j < off+w; j++ {
				cells[j] = plaintext[j] ^ lpad[j]
			}
		}
		// Untouched non-zero words keep their stored cells — unless
		// they were stored as zeros last write (zero flag was set and
		// the word is unchanged-zero? then isZero would be true). A
		// word that *was* zero and still is lands in the zero branch;
		// a word that changed from zero is marked modified. So the
		// keep case is always valid TCTR/LCTR ciphertext.
	}
	s.meta.join(meta, newMod, newZero)
}

// decodeLineInto reconstructs the plaintext from stored state into dst
// (which must not alias cells), using the base pad scratch.
func (s *Secret) decodeLineInto(dst []byte, line uint64, cells, meta []byte) {
	mod, zero := s.meta.split(meta, s.oldFields)
	ctr := s.ctrs.Get(line)
	dualDecryptInto(dst, s.gen, line, ctr, s.epochMask, s.p.WordBytes, cells, mod, s.scr.pads)
	w := s.p.WordBytes
	for i := 0; i < s.words(); i++ {
		if bitutil.GetBit(zero, i) {
			for j := i * w; j < (i+1)*w; j++ {
				dst[j] = 0
			}
		}
	}
}

// Install implements Scheme.
func (s *Secret) Install(line uint64, plaintext []byte) {
	s.checkPlain(plaintext)
	s.markInstalled(line)
	zeroPlain := make([]byte, s.p.LineBytes)
	cells := make([]byte, s.p.LineBytes)
	meta := make([]byte, metaBytes(2*s.words()))
	s.encodeLineInto(cells, meta, line, 0, true, s.gen.Encrypt(line, 0, zeroPlain), nil, nil, plaintext)
	s.dev.Load(line, cells, meta)
}

// Write implements Scheme. Allocation-free in steady state.
func (s *Secret) Write(line uint64, plaintext []byte) pcmdev.WriteResult {
	s.checkPlain(plaintext)
	s.initLine(line)

	oldCells, oldMeta := s.scr.oldData, s.scr.oldMeta
	s.dev.PeekInto(line, oldCells, oldMeta)
	s.decodeLineInto(s.scr.oldPlain, line, oldCells, oldMeta)
	oldMod, _ := s.meta.split(oldMeta, s.oldFields)
	ctr, _ := s.ctrs.Increment(line)

	full := ctr&s.epochMask == 0
	s.encodeLineInto(s.scr.newData, s.scr.newMeta, line, ctr, full, oldCells, oldMod, s.scr.oldPlain, plaintext)
	return s.observe(line, s.dev.Write(line, s.scr.newData, s.scr.newMeta), full)
}

// ReadInto implements Scheme.
func (s *Secret) ReadInto(line uint64, dst []byte) {
	s.checkDst(dst)
	s.initLine(line)
	s.dev.ReadInto(line, s.scr.oldData, s.scr.oldMeta)
	s.decodeLineInto(dst, line, s.scr.oldData, s.scr.oldMeta)
}

// KindSecret selects the SECRET-style scheme.
const KindSecret Kind = "secret"

func init() {
	constructors[KindSecret] = func(p Params) (Scheme, error) { return NewSecret(p) }
}
