package core

import (
	"encoding/binary"

	"deuce/internal/bitutil"
	"deuce/internal/fnw"
	"deuce/internal/otp"
	"deuce/internal/pcmdev"
)

// Deuce implements Dual Counter Encryption, the paper's primary contribution
// (§4). Each line keeps one write counter from which two virtual counters
// are derived:
//
//	LCTR (leading)  = the counter value itself
//	TCTR (trailing) = LCTR with the low log2(EpochInterval) bits masked off
//
// One modified bit per tracking word records whether the word has changed
// since the start of the current epoch. On a write, every word modified at
// least once this epoch is re-encrypted with the LCTR pad; untouched words
// keep their stored ciphertext, which was produced with the TCTR pad at the
// epoch boundary. When the counter reaches an epoch boundary (LCTR == TCTR)
// the whole line re-encrypts and the modified bits reset.
//
// Security is inherited from the baseline OTP scheme: a word's ciphertext
// only ever changes under a counter value that has never been used for that
// line before, so no pad encrypts two different values (§4.3.5).
//
// A write derives two pads, not three: it never decrypts the old line.
// Between boundaries the old and new counters share one TCTR, so a word
// whose modified bit is clear still holds plaintext ^ padT, and comparing
// oldCT ^ padT with the new plaintext finds exactly the changed words (see
// deuceStepInto). The TCTR pad is only compared against, never used to
// encrypt new data, and the stored image is byte-identical to decrypting
// first, so the §4.3.5 argument is unchanged.
type Deuce struct {
	*base
	epochMask uint64
}

// NewDeuce constructs a DEUCE memory with the configured epoch interval and
// tracking granularity.
func NewDeuce(p Params) (*Deuce, error) {
	p.setDefaults()
	b, err := newBase(p, p.LineBytes/p.WordBytes, false)
	if err != nil {
		return nil, err
	}
	return &Deuce{base: b, epochMask: uint64(p.EpochInterval - 1)}, nil
}

// Name implements Scheme.
func (s *Deuce) Name() string { return "DEUCE" }

// OverheadBits implements Scheme.
func (s *Deuce) OverheadBits() int { return s.words() }

// tctr derives the trailing counter from a leading counter value.
func tctr(ctr, epochMask uint64) uint64 { return ctr &^ epochMask }

// The DEUCE kernels work on 8-byte lanes through pcmdev.Lanes, which
// states the tracked-word rule once for them and for the device's one-pass
// WriteTracked: a lane holds 8/w tracking words of w bytes, whose modified
// bits form one (8/w)-bit group of the metadata image.

// dualDecryptInto reconstructs the plaintext of a DEUCE-encrypted region
// into dst. ct is the stored ciphertext, mod the modified-bit image (bit i
// covers word i), ctr the line counter. Words with the modified bit set
// decrypt with the LCTR pad; the rest with the TCTR pad (Figure 7): per
// lane, dst = ct ^ (padT &^ M | padL & M) with M the lane's modified words
// as a byte mask. pads is caller-owned scratch of 2*len(ct) bytes; after
// the call its first half holds the LCTR pad and, off an epoch boundary,
// its second half the TCTR pad. Off a boundary both pads come from one
// PadPairInto call, as the paper's two pad engines run side by side.
func dualDecryptInto(dst []byte, gen *otp.Generator, line, ctr, epochMask uint64, wordBytes int, ct, mod, pads []byte) {
	lpadBuf, tpadBuf := pads[:len(ct)], pads[len(ct):2*len(ct)]
	t := tctr(ctr, epochMask)
	if t == ctr {
		// Epoch boundary state: every word is LCTR-encrypted.
		gen.PadInto(lpadBuf, line, ctr)
		bitutil.XOR(dst, ct, lpadBuf)
		return
	}
	gen.PadPairInto(pads[:2*len(ct)], line, ctr, t)
	lt := pcmdev.LanesFor(wordBytes)
	for k, off := 0, 0; off < len(ct); k, off = k+1, off+8 {
		pad := lt.Select(lt.Group(mod, k), binary.LittleEndian.Uint64(tpadBuf[off:]), binary.LittleEndian.Uint64(lpadBuf[off:]))
		binary.LittleEndian.PutUint64(dst[off:], binary.LittleEndian.Uint64(ct[off:])^pad)
	}
}

// dualDecrypt is the allocating convenience over dualDecryptInto, used on
// read paths where a fresh plaintext slice is the return value anyway.
func dualDecrypt(gen *otp.Generator, line, ctr, epochMask uint64, wordBytes int, ct, mod []byte) []byte {
	out := make([]byte, len(ct))
	dualDecryptInto(out, gen, line, ctr, epochMask, wordBytes, ct, mod, make([]byte, 2*len(ct)))
	return out
}

// deuceStepInto computes the ciphertext image and modified bits produced by
// one DEUCE write, into caller-owned newCT (line-sized) and newMod (at least
// metaBytes(words) bytes; exactly that prefix is written). oldCT and oldMod
// describe the pre-write stored state, ctr the already-incremented counter.
// pads is pad scratch of two lines; on return its first half holds the LCTR
// pad for ctr. newCT must not alias oldCT or plaintext; newMod must not
// alias oldMod.
//
// The old plaintext is never reconstructed. Off an epoch boundary ctr-1
// and ctr share one TCTR, so a word not yet modified this epoch still holds
// its TCTR ciphertext, and oldCT ^ padT ^ plaintext is zero exactly on the
// unchanged words. Words already modified stay modified whatever they hold:
//
//	newMod = oldMod | nonzeroWords(oldCT ^ padT ^ plaintext)
//	newCT  = oldCT &^ M | (plaintext ^ padL) & M,  M = newMod as a byte mask
//
// That is two pads per write off a boundary, derived together by one
// PadPairInto call, and one at it.
func deuceStepInto(newCT, newMod []byte, gen *otp.Generator, line, ctr, epochMask uint64, wordBytes int,
	oldCT, oldMod, plaintext, pads []byte) {

	n := len(plaintext)
	lpadBuf, tpadBuf := pads[:n], pads[n:2*n]
	mb := metaBytes(n / wordBytes)
	if ctr&epochMask == 0 {
		// Epoch boundary: full re-encryption, modified bits reset
		// (TCTR catches up to LCTR).
		gen.PadInto(lpadBuf, line, ctr)
		bitutil.XOR(newCT, plaintext, lpadBuf)
		for i := range newMod[:mb] {
			newMod[i] = 0
		}
		return
	}

	gen.PadPairInto(pads[:2*n], line, ctr, tctr(ctr, epochMask))
	copy(newMod[:mb], oldMod[:mb])
	lt := pcmdev.LanesFor(wordBytes)
	for k, off := 0, 0; off < len(plaintext); k, off = k+1, off+8 {
		ct, g := lt.Step(lt.Group(oldMod, k), binary.LittleEndian.Uint64(oldCT[off:]), binary.LittleEndian.Uint64(plaintext[off:]),
			binary.LittleEndian.Uint64(lpadBuf[off:]), binary.LittleEndian.Uint64(tpadBuf[off:]))
		lt.OrGroup(newMod, k, g)
		binary.LittleEndian.PutUint64(newCT[off:], ct)
	}
}

// Install implements Scheme. Counter 0 is an epoch boundary: the whole
// line is encrypted with pad 0 and the modified bits are clear.
func (s *Deuce) Install(line uint64, plaintext []byte) {
	s.checkPlain(plaintext)
	s.markInstalled(line)
	s.dev.Load(line, s.gen.Encrypt(line, 0, plaintext), make([]byte, metaBytes(s.words())))
}

func (s *Deuce) initLine(line uint64) {
	if !s.touched(line) {
		s.Install(line, s.zeroLine())
	}
}

// Write implements Scheme. The steady-state path allocates nothing. On a
// bare device a write is one counter increment, one pad derivation (a
// PadPairInto off a boundary, a PadInto at one) and one WriteTracked call,
// which applies the word rule while it diffs and stores the live line.
// Arrays that wrap the device (wear leveling, integrity guards, probes)
// take the general path: copy the stored image out, step it in scratch
// (deuceStepInto) and Write it back, with identical cells and cost.
func (s *Deuce) Write(line uint64, plaintext []byte) pcmdev.WriteResult {
	s.checkPlain(plaintext)
	s.initLine(line)

	if d, ok := s.dev.(*pcmdev.Device); ok {
		ctr, _ := s.ctrs.Increment(line)
		reset := ctr&s.epochMask == 0
		if reset {
			s.gen.PadInto(s.scr.padL, line, ctr)
		} else {
			s.gen.PadPairInto(s.scr.pads, line, ctr, tctr(ctr, s.epochMask))
		}
		res := d.WriteTracked(line, plaintext, s.scr.padL, s.scr.padT, s.p.WordBytes, reset)
		if s.p.Trace != nil {
			s.observe(s.Name(), line, res, reset)
		}
		return res
	}

	oldCT, oldMod := s.scr.oldData, s.scr.oldMeta
	s.dev.PeekInto(line, oldCT, oldMod)
	ctr, _ := s.ctrs.Increment(line)
	deuceStepInto(s.scr.newData, s.scr.newMeta, s.gen, line, ctr, s.epochMask, s.p.WordBytes,
		oldCT, oldMod, plaintext, s.scr.pads)
	return s.observe(s.Name(), line, s.dev.Write(line, s.scr.newData, s.scr.newMeta), ctr&s.epochMask == 0)
}

// Read implements Scheme.
func (s *Deuce) Read(line uint64) []byte {
	s.initLine(line)
	ct, mod := s.dev.Read(line)
	return dualDecrypt(s.gen, line, s.ctrs.Get(line), s.epochMask, s.p.WordBytes, ct, mod)
}

// ReadInto implements Scheme.
func (s *Deuce) ReadInto(line uint64, dst []byte) {
	s.initLine(line)
	s.dev.ReadInto(line, s.scr.oldData, s.scr.oldMeta)
	dualDecryptInto(dst, s.gen, line, s.ctrs.Get(line), s.epochMask, s.p.WordBytes,
		s.scr.oldData, s.scr.oldMeta, s.scr.pads)
}

// DeuceFNW stacks a Flip-N-Write stage between DEUCE's ciphertext image and
// the PCM cells, with dedicated flip bits (the paper's "DEUCE+FNW", 64 bits
// of metadata per line, Table 3). The metadata layout is the modified bits
// followed by the flip bits.
type DeuceFNW struct {
	*base
	codec     *fnw.Codec
	epochMask uint64
	meta      fieldPair // modified bits, then flip bits

	// Extra write-path scratch beyond base.scr: the FNW layer separates
	// the raw cells from the DEUCE ciphertext, so both images of both
	// generations are live at once.
	oldCTBuf  []byte // FNW-decoded stored ciphertext
	newCTBuf  []byte // DEUCE output before FNW encoding
	oldFields []byte // split scratch for the stored metadata
	newFields []byte // split scratch for the metadata to be written
}

// NewDeuceFNW constructs a DEUCE+FNW memory.
func NewDeuceFNW(p Params) (*DeuceFNW, error) {
	p.setDefaults()
	codec, err := fnw.New(p.WordBytes)
	if err != nil {
		return nil, err
	}
	words := p.LineBytes / p.WordBytes
	b, err := newBase(p, 2*words, false)
	if err != nil {
		return nil, err
	}
	meta := newFieldPair(words)
	return &DeuceFNW{
		base:      b,
		codec:     codec,
		epochMask: uint64(p.EpochInterval - 1),
		meta:      meta,
		oldCTBuf:  make([]byte, p.LineBytes),
		newCTBuf:  make([]byte, p.LineBytes),
		oldFields: meta.scratch(),
		newFields: meta.scratch(),
	}, nil
}

// Name implements Scheme.
func (s *DeuceFNW) Name() string { return "DEUCE+FNW" }

// OverheadBits implements Scheme.
func (s *DeuceFNW) OverheadBits() int { return 2 * s.words() }

// Install implements Scheme.
func (s *DeuceFNW) Install(line uint64, plaintext []byte) {
	s.checkPlain(plaintext)
	s.markInstalled(line)
	s.dev.Load(line, s.gen.Encrypt(line, 0, plaintext), make([]byte, metaBytes(2*s.words())))
}

func (s *DeuceFNW) initLine(line uint64) {
	if !s.touched(line) {
		s.Install(line, s.zeroLine())
	}
}

// Write implements Scheme. Allocation-free in steady state: the DEUCE step
// writes its modified bits into the first metadata field and the FNW
// encoder its flip bits into the second.
func (s *DeuceFNW) Write(line uint64, plaintext []byte) pcmdev.WriteResult {
	s.checkPlain(plaintext)
	s.initLine(line)

	oldCells, oldMeta := s.scr.oldData, s.scr.oldMeta
	s.dev.PeekInto(line, oldCells, oldMeta)
	oldMod, oldFlips := s.meta.split(oldMeta, s.oldFields)
	s.codec.DecodeInto(s.oldCTBuf, oldCells, oldFlips)

	ctr, _ := s.ctrs.Increment(line)
	newMod, newFlips := s.meta.split(s.scr.newMeta, s.newFields)
	deuceStepInto(s.newCTBuf, newMod, s.gen, line, ctr, s.epochMask, s.p.WordBytes,
		s.oldCTBuf, oldMod, plaintext, s.scr.pads)
	s.codec.EncodeInto(s.scr.newData, newFlips, oldCells, oldFlips, s.newCTBuf)
	s.meta.join(s.scr.newMeta, newMod, newFlips)
	return s.observe(s.Name(), line, s.dev.Write(line, s.scr.newData, s.scr.newMeta), ctr&s.epochMask == 0)
}

// Read implements Scheme.
func (s *DeuceFNW) Read(line uint64) []byte {
	s.initLine(line)
	cells, meta := s.dev.Read(line)
	mod, flips := s.meta.split(meta, s.meta.scratch())
	ct := s.codec.Decode(cells, flips)
	return dualDecrypt(s.gen, line, s.ctrs.Get(line), s.epochMask, s.p.WordBytes, ct, mod)
}

// ReadInto implements Scheme.
func (s *DeuceFNW) ReadInto(line uint64, dst []byte) {
	s.initLine(line)
	s.dev.ReadInto(line, s.scr.oldData, s.scr.oldMeta)
	mod, flips := s.meta.split(s.scr.oldMeta, s.oldFields)
	s.codec.DecodeInto(s.oldCTBuf, s.scr.oldData, flips)
	dualDecryptInto(dst, s.gen, line, s.ctrs.Get(line), s.epochMask, s.p.WordBytes,
		s.oldCTBuf, mod, s.scr.pads)
}
