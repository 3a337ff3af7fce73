package core

import (
	"deuce/internal/bitutil"
	"deuce/internal/fnw"
	"deuce/internal/pcmdev"
)

// DynDeuce morphs between DEUCE and encrypted-FNW within an epoch (§4.6).
// The per-line metadata is the word-tracking bits — interpreted as DEUCE
// modified bits or as FNW flip bits depending on a single extra mode bit —
// for a total of words+1 bits per line (33 with the default 2-byte words).
//
// Every epoch starts in DEUCE mode. At each write while in DEUCE mode the
// expected cell programs under DEUCE and under full-re-encrypt-plus-FNW are
// compared (Figure 11); if FNW is cheaper the line switches to FNW mode for
// the remainder of the epoch. The switch is one-way because re-entering
// DEUCE mid-epoch would require epoch-start state that was destroyed; the
// epoch boundary restores DEUCE mode with a full re-encryption.
type DynDeuce struct {
	*base
	codec      *fnw.Codec
	epochMask  uint64
	trackBytes int // bytes holding the dual-purpose word bits

	// Extra write-path scratch beyond base.scr: in DEUCE mode both
	// candidate encodings (DEUCE step and FNW re-encrypt) are materialized
	// before one is picked.
	deuceCTBuf  []byte // DEUCE-candidate ciphertext
	deuceModBuf []byte // DEUCE-candidate modified bits
	fnwCTBuf    []byte // whole-line re-encryption for the FNW candidate
}

// NewDynDeuce constructs a DynDEUCE memory.
func NewDynDeuce(p Params) (*DynDeuce, error) {
	p.setDefaults()
	codec, err := fnw.New(p.WordBytes)
	if err != nil {
		return nil, err
	}
	words := p.LineBytes / p.WordBytes
	// words tracking bits plus one mode bit.
	b, err := newBase(p, words+1, false)
	if err != nil {
		return nil, err
	}
	return &DynDeuce{
		base:        b,
		codec:       codec,
		epochMask:   uint64(p.EpochInterval - 1),
		trackBytes:  metaBytes(words),
		deuceCTBuf:  make([]byte, p.LineBytes),
		deuceModBuf: make([]byte, metaBytes(words)),
		fnwCTBuf:    make([]byte, p.LineBytes),
	}, nil
}

// Name implements Scheme.
func (s *DynDeuce) Name() string { return "DynDEUCE" }

// OverheadBits implements Scheme.
func (s *DynDeuce) OverheadBits() int { return s.words() + 1 }

// modeBit is the metadata bit index of the DEUCE/FNW mode flag.
func (s *DynDeuce) modeBit() int { return s.words() }

// metaLen is the metadata image size in bytes (tracking bits + mode bit).
func (s *DynDeuce) metaLen() int { return metaBytes(s.words() + 1) }

// Install implements Scheme.
func (s *DynDeuce) Install(line uint64, plaintext []byte) {
	s.checkPlain(plaintext)
	s.markInstalled(line)
	s.dev.Load(line, s.gen.Encrypt(line, 0, plaintext), make([]byte, s.metaLen()))
}

func (s *DynDeuce) initLine(line uint64) {
	if !s.touched(line) {
		s.Install(line, s.zeroLine())
	}
}

// plainOfInto reconstructs the current plaintext from stored state into dst
// (which must not alias cells), using the base pad scratch.
func (s *DynDeuce) plainOfInto(dst []byte, line uint64, cells, meta []byte) {
	ctr := s.ctrs.Get(line)
	if bitutil.GetBit(meta, s.modeBit()) {
		// FNW mode: cells are FNW-encoded whole-line ciphertext.
		s.codec.DecodeInto(dst, cells, meta)
		s.gen.DecryptInto(dst, line, ctr, dst)
		return
	}
	dualDecryptInto(dst, s.gen, line, ctr, s.epochMask, s.p.WordBytes, cells, meta, s.scr.pads)
}

// plainOf is the allocating convenience for the read path.
func (s *DynDeuce) plainOf(line uint64, cells, meta []byte) []byte {
	out := make([]byte, len(cells))
	s.plainOfInto(out, line, cells, meta)
	return out
}

// Write implements Scheme. Allocation-free in steady state: both candidate
// encodings live in dedicated scratch buffers and the chosen one lands in
// the shared newData/newMeta scratch.
func (s *DynDeuce) Write(line uint64, plaintext []byte) pcmdev.WriteResult {
	s.checkPlain(plaintext)
	s.initLine(line)

	oldCells, oldMeta := s.scr.oldData, s.scr.oldMeta
	s.dev.PeekInto(line, oldCells, oldMeta)
	fnwMode := bitutil.GetBit(oldMeta, s.modeBit())
	ctr, _ := s.ctrs.Increment(line)

	newCells, newMeta := s.scr.newData, s.scr.newMeta
	for i := range newMeta {
		newMeta[i] = 0
	}

	switch {
	case ctr&s.epochMask == 0:
		// Epoch boundary: back to DEUCE mode, full re-encryption,
		// tracking bits and mode bit reset.
		s.gen.EncryptInto(newCells, line, ctr, plaintext)

	case fnwMode:
		// Committed to FNW for the rest of the epoch: whole-line
		// re-encryption through the FNW stage.
		s.gen.EncryptInto(s.fnwCTBuf, line, ctr, plaintext)
		s.codec.EncodeInto(newCells, newMeta, oldCells, oldMeta, s.fnwCTBuf)
		bitutil.SetBit(newMeta, s.modeBit(), true)

	default:
		// DEUCE mode: estimate both candidates and pick the cheaper
		// (Figure 11). Costs include the tracking-bit changes so the
		// comparison is apples to apples. The FNW candidate is the whole
		// line under the LCTR pad the DEUCE step just derived.
		deuceStepInto(s.deuceCTBuf, s.deuceModBuf, s.gen, line, ctr, s.epochMask, s.p.WordBytes,
			oldCells, oldMeta, plaintext, s.scr.pads)
		deuceCost := bitutil.Hamming(oldCells, s.deuceCTBuf) +
			bitutil.Hamming(oldMeta[:s.trackBytes], s.deuceModBuf[:s.trackBytes])

		bitutil.XOR(s.fnwCTBuf, plaintext, s.scr.padL)
		fnwCost := s.codec.CountFlips(oldCells, oldMeta, s.fnwCTBuf) + 1 // +1: mode bit

		if fnwCost < deuceCost {
			s.codec.EncodeInto(newCells, newMeta, oldCells, oldMeta, s.fnwCTBuf)
			bitutil.SetBit(newMeta, s.modeBit(), true)
		} else {
			copy(newCells, s.deuceCTBuf)
			copy(newMeta[:s.trackBytes], s.deuceModBuf[:s.trackBytes])
		}
	}
	return s.observe(s.Name(), line, s.dev.Write(line, newCells, newMeta), ctr&s.epochMask == 0)
}

// Read implements Scheme.
func (s *DynDeuce) Read(line uint64) []byte {
	s.initLine(line)
	cells, meta := s.dev.Read(line)
	return s.plainOf(line, cells, meta)
}

// ReadInto implements Scheme.
func (s *DynDeuce) ReadInto(line uint64, dst []byte) {
	s.initLine(line)
	s.dev.ReadInto(line, s.scr.oldData, s.scr.oldMeta)
	s.plainOfInto(dst, line, s.scr.oldData, s.scr.oldMeta)
}
