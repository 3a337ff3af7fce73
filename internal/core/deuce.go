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

// The DEUCE kernels work on 8-byte lanes. A lane holds 8/w tracking words
// of w bytes, whose modified bits form one (8/w)-bit group of the metadata
// image; since 8/w divides 8, a group never straddles a metadata byte.
// laneTab holds, for one word width, the two translations a kernel needs
// between a lane's bytes and its group of word bits.
type laneTab struct {
	bits uint // word bits per lane (8/w)
	// words maps a lane's nonzero-byte pattern (bit i: byte i nonzero) to
	// its nonzero-word bits (bit j: word j has a nonzero byte).
	words [256]uint8
	// expand maps a lane's word bits to a byte mask: 0xff on every byte of
	// a word whose bit is set. Only the first 1<<bits entries are used.
	expand [256]uint64
}

// laneTabs is indexed by word width in bytes (1, 2, 4 or 8, the widths
// Params.validate accepts); it is filled once at package initialization.
var laneTabs = func() (t [9]*laneTab) {
	for _, w := range []int{1, 2, 4, 8} {
		lt := &laneTab{bits: uint(8 / w)}
		for v := 0; v < 256; v++ {
			for i := 0; i < 8; i++ {
				if v&(1<<i) != 0 {
					lt.words[v] |= 1 << (i / w)
				}
				if v < 1<<lt.bits && v&(1<<(i/w)) != 0 {
					lt.expand[v] |= 0xff << (8 * i)
				}
			}
		}
		t[w] = lt
	}
	return t
}()

// group returns the word bits of lane k from a metadata image.
func (lt *laneTab) group(meta []byte, k int) uint8 {
	off := uint(k) * lt.bits
	return meta[off>>3] >> (off & 7) & uint8(1<<lt.bits-1)
}

// nonzeroBytes returns the byte pattern of x: bit i is set iff byte i of x
// is nonzero. The sum sets each byte's high bit iff its low seven bits are
// nonzero (no carry crosses a byte); the multiply gathers the eight high
// bits into the top byte without collisions.
func nonzeroBytes(x uint64) uint8 {
	const lo7 = 0x7f7f7f7f7f7f7f7f
	h := ((x & lo7) + lo7 | x) &^ lo7
	return uint8(h * 0x0002040810204081 >> 56)
}

// dualDecryptInto reconstructs the plaintext of a DEUCE-encrypted region
// into dst. ct is the stored ciphertext, mod the modified-bit image (bit i
// covers word i), ctr the line counter. Words with the modified bit set
// decrypt with the LCTR pad; the rest with the TCTR pad (Figure 7): per
// lane, dst = ct ^ (padT &^ M | padL & M) with M the lane's modified words
// as a byte mask. lpadBuf and tpadBuf are caller-owned pad scratch of
// len(ct) bytes; their contents after the call are the two pads.
func dualDecryptInto(dst []byte, gen *otp.Generator, line, ctr, epochMask uint64, wordBytes int, ct, mod, lpadBuf, tpadBuf []byte) {
	gen.PadInto(lpadBuf, line, ctr)
	t := tctr(ctr, epochMask)
	if t == ctr {
		// Epoch boundary state: every word is LCTR-encrypted.
		bitutil.XOR(dst, ct, lpadBuf)
		return
	}
	gen.PadInto(tpadBuf, line, t)
	lt := laneTabs[wordBytes]
	for k, off := 0, 0; off < len(ct); k, off = k+1, off+8 {
		m := lt.expand[lt.group(mod, k)]
		pad := binary.LittleEndian.Uint64(tpadBuf[off:])&^m | binary.LittleEndian.Uint64(lpadBuf[off:])&m
		binary.LittleEndian.PutUint64(dst[off:], binary.LittleEndian.Uint64(ct[off:])^pad)
	}
}

// dualDecrypt is the allocating convenience over dualDecryptInto, used on
// read paths where a fresh plaintext slice is the return value anyway.
func dualDecrypt(gen *otp.Generator, line, ctr, epochMask uint64, wordBytes int, ct, mod []byte) []byte {
	out := make([]byte, len(ct))
	lpad := make([]byte, len(ct))
	tpad := make([]byte, len(ct))
	dualDecryptInto(out, gen, line, ctr, epochMask, wordBytes, ct, mod, lpad, tpad)
	return out
}

// deuceStepInto computes the ciphertext image and modified bits produced by
// one DEUCE write, into caller-owned newCT (line-sized) and newMod (at least
// metaBytes(words) bytes; exactly that prefix is written). oldCT and oldMod
// describe the pre-write stored state, ctr the already-incremented counter.
// lpadBuf and tpadBuf are line-sized pad scratch; on return lpadBuf holds
// the LCTR pad for ctr. newCT must not alias oldCT or plaintext; newMod must
// not alias oldMod.
//
// The old plaintext is never reconstructed. Off an epoch boundary ctr-1
// and ctr share one TCTR, so a word not yet modified this epoch still holds
// its TCTR ciphertext, and oldCT ^ padT ^ plaintext is zero exactly on the
// unchanged words. Words already modified stay modified whatever they hold:
//
//	newMod = oldMod | nonzeroWords(oldCT ^ padT ^ plaintext)
//	newCT  = oldCT &^ M | (plaintext ^ padL) & M,  M = newMod as a byte mask
//
// That is two pads per write off a boundary and one at it.
func deuceStepInto(newCT, newMod []byte, gen *otp.Generator, line, ctr, epochMask uint64, wordBytes int,
	oldCT, oldMod, plaintext, lpadBuf, tpadBuf []byte) {

	mb := metaBytes(len(plaintext) / wordBytes)
	gen.PadInto(lpadBuf, line, ctr)
	if ctr&epochMask == 0 {
		// Epoch boundary: full re-encryption, modified bits reset
		// (TCTR catches up to LCTR).
		bitutil.XOR(newCT, plaintext, lpadBuf)
		for i := range newMod[:mb] {
			newMod[i] = 0
		}
		return
	}

	gen.PadInto(tpadBuf, line, tctr(ctr, epochMask))
	copy(newMod[:mb], oldMod[:mb])
	lt := laneTabs[wordBytes]
	for k, off := 0, 0; off < len(plaintext); k, off = k+1, off+8 {
		ct := binary.LittleEndian.Uint64(oldCT[off:])
		pt := binary.LittleEndian.Uint64(plaintext[off:])
		g := lt.group(oldMod, k) | lt.words[nonzeroBytes(ct^binary.LittleEndian.Uint64(tpadBuf[off:])^pt)]
		bit := uint(k) * lt.bits
		newMod[bit>>3] |= g << (bit & 7)
		m := lt.expand[g]
		binary.LittleEndian.PutUint64(newCT[off:], ct&^m|(pt^binary.LittleEndian.Uint64(lpadBuf[off:]))&m)
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

// Write implements Scheme. The steady-state path allocates nothing: the
// stored image, the pads and the new image all live in the scheme's
// scratch buffers.
func (s *Deuce) Write(line uint64, plaintext []byte) pcmdev.WriteResult {
	s.checkPlain(plaintext)
	s.initLine(line)

	oldCT, oldMod := s.scr.oldData, s.scr.oldMeta
	s.dev.PeekInto(line, oldCT, oldMod)
	ctr, _ := s.ctrs.Increment(line)
	deuceStepInto(s.scr.newData, s.scr.newMeta, s.gen, line, ctr, s.epochMask, s.p.WordBytes,
		oldCT, oldMod, plaintext, s.scr.padL, s.scr.padT)
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
		s.scr.oldData, s.scr.oldMeta, s.scr.padL, s.scr.padT)
}

// DeuceFNW stacks a Flip-N-Write stage between DEUCE's ciphertext image and
// the PCM cells, with dedicated flip bits (the paper's "DEUCE+FNW", 64 bits
// of metadata per line, Table 3). The metadata layout is the modified bits
// followed by the flip bits.
type DeuceFNW struct {
	*base
	codec     *fnw.Codec
	epochMask uint64
	modBytes  int

	// Extra write-path scratch beyond base.scr: the FNW layer separates
	// the raw cells from the DEUCE ciphertext, so both images of both
	// generations are live at once.
	oldCTBuf []byte // FNW-decoded stored ciphertext
	newCTBuf []byte // DEUCE output before FNW encoding
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
	return &DeuceFNW{
		base:      b,
		codec:     codec,
		epochMask: uint64(p.EpochInterval - 1),
		modBytes:  metaBytes(words),
		oldCTBuf:  make([]byte, p.LineBytes),
		newCTBuf:  make([]byte, p.LineBytes),
	}, nil
}

// Name implements Scheme.
func (s *DeuceFNW) Name() string { return "DEUCE+FNW" }

// OverheadBits implements Scheme.
func (s *DeuceFNW) OverheadBits() int { return 2 * s.words() }

func (s *DeuceFNW) split(meta []byte) (mod, flips []byte) {
	return meta[:s.modBytes], meta[s.modBytes:]
}

// Install implements Scheme.
func (s *DeuceFNW) Install(line uint64, plaintext []byte) {
	s.checkPlain(plaintext)
	s.markInstalled(line)
	s.dev.Load(line, s.gen.Encrypt(line, 0, plaintext), make([]byte, 2*s.modBytes))
}

func (s *DeuceFNW) initLine(line uint64) {
	if !s.touched(line) {
		s.Install(line, s.zeroLine())
	}
}

// Write implements Scheme. Allocation-free in steady state: the DEUCE step
// writes its modified bits straight into the first half of the metadata
// scratch and the FNW encoder its flip bits into the second half.
func (s *DeuceFNW) Write(line uint64, plaintext []byte) pcmdev.WriteResult {
	s.checkPlain(plaintext)
	s.initLine(line)

	oldCells, oldMeta := s.scr.oldData, s.scr.oldMeta
	s.dev.PeekInto(line, oldCells, oldMeta)
	oldMod, oldFlips := s.split(oldMeta)
	s.codec.DecodeInto(s.oldCTBuf, oldCells, oldFlips)

	ctr, _ := s.ctrs.Increment(line)
	newMod, newFlips := s.split(s.scr.newMeta)
	deuceStepInto(s.newCTBuf, newMod, s.gen, line, ctr, s.epochMask, s.p.WordBytes,
		s.oldCTBuf, oldMod, plaintext, s.scr.padL, s.scr.padT)
	s.codec.EncodeInto(s.scr.newData, newFlips, oldCells, oldFlips, s.newCTBuf)
	return s.observe(s.Name(), line, s.dev.Write(line, s.scr.newData, s.scr.newMeta), ctr&s.epochMask == 0)
}

// Read implements Scheme.
func (s *DeuceFNW) Read(line uint64) []byte {
	s.initLine(line)
	cells, meta := s.dev.Read(line)
	mod, flips := s.split(meta)
	ct := s.codec.Decode(cells, flips)
	return dualDecrypt(s.gen, line, s.ctrs.Get(line), s.epochMask, s.p.WordBytes, ct, mod)
}

// ReadInto implements Scheme.
func (s *DeuceFNW) ReadInto(line uint64, dst []byte) {
	s.initLine(line)
	s.dev.ReadInto(line, s.scr.oldData, s.scr.oldMeta)
	mod, flips := s.split(s.scr.oldMeta)
	s.codec.DecodeInto(s.oldCTBuf, s.scr.oldData, flips)
	dualDecryptInto(dst, s.gen, line, s.ctrs.Get(line), s.epochMask, s.p.WordBytes,
		s.oldCTBuf, mod, s.scr.padL, s.scr.padT)
}
