package core

import (
	"deuce/internal/bitutil"
	"deuce/internal/ctrstore"
	"deuce/internal/otp"
	"deuce/internal/pcmdev"
)

// BLE is Block-Level Encryption (Kong & Zhou, DSN 2010 — paper ref [18],
// discussed in §7.1): the 64-byte line is split into four independent
// 16-byte AES blocks, each with its own counter. A write re-encrypts only
// the blocks whose plaintext changed, incrementing only their counters.
// This limits the avalanche blast radius to 16 bytes but still rewrites a
// whole block when a single bit in it changes, which is why the paper
// measures it at 33% flips versus DEUCE's 24%.
type BLE struct {
	*base
	blocks int
}

// NewBLE constructs a block-level-encrypted memory.
func NewBLE(p Params) (*BLE, error) {
	p.setDefaults()
	b, err := newBase(p, "BLE", 0, true)
	if err != nil {
		return nil, err
	}
	s := &BLE{base: b, blocks: p.LineBytes / otp.BlockSize}
	s.install = s.Install
	return s, nil
}

// OverheadBits implements Scheme. BLE's overhead is the three extra
// counters per line beyond the baseline's single line counter.
func (s *BLE) OverheadBits() int {
	return (s.blocks - 1) * int(s.p.CounterBits)
}

func (s *BLE) blockIdx(line uint64, blk int) uint64 {
	return ctrstore.BlockIndex(line, s.blocks, blk)
}

// Install implements Scheme.
func (s *BLE) Install(line uint64, plaintext []byte) {
	s.checkPlain(plaintext)
	s.markInstalled(line)
	img := make([]byte, s.p.LineBytes)
	pad := s.scr.padL[:otp.BlockSize] // pad scratch, free before any Write or ReadInto step
	for blk := 0; blk < s.blocks; blk++ {
		off := blk * otp.BlockSize
		s.gen.BlockPadInto(pad, line, 0, blk)
		for j := 0; j < otp.BlockSize; j++ {
			img[off+j] = plaintext[off+j] ^ pad[j]
		}
	}
	s.dev.Load(line, img, nil)
}

// decryptLineInto reconstructs the plaintext from per-block counters into
// dst, using the padL scratch for block pads. dst must not alias ct.
func (s *BLE) decryptLineInto(dst []byte, line uint64, ct []byte) {
	pad := s.scr.padL[:otp.BlockSize]
	for blk := 0; blk < s.blocks; blk++ {
		off := blk * otp.BlockSize
		s.gen.BlockPadInto(pad, line, s.ctrs.Get(s.blockIdx(line, blk)), blk)
		for j := 0; j < otp.BlockSize; j++ {
			dst[off+j] = ct[off+j] ^ pad[j]
		}
	}
}

// Write implements Scheme. Allocation-free in steady state.
func (s *BLE) Write(line uint64, plaintext []byte) pcmdev.WriteResult {
	s.checkPlain(plaintext)
	s.initLine(line)

	oldCT := s.scr.oldData
	s.dev.PeekInto(line, oldCT, nil)
	oldPlain := s.scr.oldPlain
	s.decryptLineInto(oldPlain, line, oldCT)
	newCT := s.scr.newData
	copy(newCT, oldCT)
	pad := s.scr.padL[:otp.BlockSize]
	for blk := 0; blk < s.blocks; blk++ {
		off := blk * otp.BlockSize
		if bitutil.HammingRange(oldPlain, plaintext, off, otp.BlockSize) == 0 {
			continue // untouched block keeps its ciphertext and counter
		}
		ctr, _ := s.ctrs.Increment(s.blockIdx(line, blk))
		s.gen.BlockPadInto(pad, line, ctr, blk)
		for j := 0; j < otp.BlockSize; j++ {
			newCT[off+j] = plaintext[off+j] ^ pad[j]
		}
	}
	return s.observe(line, s.dev.Write(line, newCT, nil), false)
}

// ReadInto implements Scheme.
func (s *BLE) ReadInto(line uint64, dst []byte) {
	s.checkDst(dst)
	s.initLine(line)
	s.dev.ReadInto(line, s.scr.oldData, nil)
	s.decryptLineInto(dst, line, s.scr.oldData)
}

// BLEDeuce combines BLE with DEUCE (§7.1, Figure 18): each 16-byte block
// has its own counter and runs the DEUCE protocol internally — per-word
// modified bits, leading/trailing virtual counters derived from the block
// counter, and block-local epochs. A block whose plaintext is untouched by
// a write keeps both its counter and its ciphertext; a touched block
// re-encrypts only its modified words with the fresh block counter.
type BLEDeuce struct {
	*base
	blocks    int
	epochMask uint64
}

// NewBLEDeuce constructs a BLE+DEUCE memory.
func NewBLEDeuce(p Params) (*BLEDeuce, error) {
	p.setDefaults()
	words := p.LineBytes / p.WordBytes
	b, err := newBase(p, "BLE+DEUCE", words, true)
	if err != nil {
		return nil, err
	}
	s := &BLEDeuce{
		base:      b,
		blocks:    p.LineBytes / otp.BlockSize,
		epochMask: uint64(p.EpochInterval - 1),
	}
	s.install = s.Install
	return s, nil
}

// OverheadBits implements Scheme: extra block counters plus the modified
// bits.
func (s *BLEDeuce) OverheadBits() int {
	return (s.blocks-1)*int(s.p.CounterBits) + s.words()
}

// wordsPerBlock returns the tracking words inside one AES block.
func (s *BLEDeuce) wordsPerBlock() int { return otp.BlockSize / s.p.WordBytes }

func (s *BLEDeuce) blockIdx(line uint64, blk int) uint64 {
	return ctrstore.BlockIndex(line, s.blocks, blk)
}

// Install implements Scheme.
func (s *BLEDeuce) Install(line uint64, plaintext []byte) {
	s.checkPlain(plaintext)
	s.markInstalled(line)
	img := make([]byte, s.p.LineBytes)
	pad := s.scr.padL[:otp.BlockSize] // pad scratch, free before any Write or ReadInto step
	for blk := 0; blk < s.blocks; blk++ {
		off := blk * otp.BlockSize
		s.gen.BlockPadInto(pad, line, 0, blk)
		for j := 0; j < otp.BlockSize; j++ {
			img[off+j] = plaintext[off+j] ^ pad[j]
		}
	}
	s.dev.Load(line, img, make([]byte, metaBytes(s.words())))
}

// decryptLineInto reconstructs plaintext using per-block dual counters into
// dst, using the padL/padT scratch for block pads. dst must not alias ct.
func (s *BLEDeuce) decryptLineInto(dst []byte, line uint64, ct, mod []byte) {
	wpb := s.wordsPerBlock()
	lbuf := s.scr.padL[:otp.BlockSize]
	tbuf := s.scr.padT[:otp.BlockSize]
	for blk := 0; blk < s.blocks; blk++ {
		off := blk * otp.BlockSize
		ctr := s.ctrs.Get(s.blockIdx(line, blk))
		s.gen.BlockPadInto(lbuf, line, ctr, blk)
		lpad := lbuf
		tpad := lpad
		if t := tctr(ctr, s.epochMask); t != ctr {
			s.gen.BlockPadInto(tbuf, line, t, blk)
			tpad = tbuf
		}
		for w := 0; w < wpb; w++ {
			pad := tpad
			if bitutil.GetBit(mod, blk*wpb+w) {
				pad = lpad
			}
			wo := w * s.p.WordBytes
			for j := 0; j < s.p.WordBytes; j++ {
				dst[off+wo+j] = ct[off+wo+j] ^ pad[wo+j]
			}
		}
	}
}

// Write implements Scheme. Allocation-free in steady state.
func (s *BLEDeuce) Write(line uint64, plaintext []byte) pcmdev.WriteResult {
	s.checkPlain(plaintext)
	s.initLine(line)

	oldCT, oldMod := s.scr.oldData, s.scr.oldMeta
	s.dev.PeekInto(line, oldCT, oldMod)
	oldPlain := s.scr.oldPlain
	s.decryptLineInto(oldPlain, line, oldCT, oldMod)
	newCT, newMod := s.scr.newData, s.scr.newMeta
	copy(newCT, oldCT)
	copy(newMod, oldMod)
	wpb := s.wordsPerBlock()
	padBuf := s.scr.padL[:otp.BlockSize]
	epochReset := false

	for blk := 0; blk < s.blocks; blk++ {
		off := blk * otp.BlockSize
		if bitutil.HammingRange(oldPlain, plaintext, off, otp.BlockSize) == 0 {
			continue // block untouched: counter, ciphertext, bits all keep
		}
		ctr, _ := s.ctrs.Increment(s.blockIdx(line, blk))
		s.gen.BlockPadInto(padBuf, line, ctr, blk)
		pad := padBuf
		if ctr&s.epochMask == 0 {
			// Block-local epoch boundary: re-encrypt whole block,
			// clear its modified bits.
			epochReset = true
			for j := 0; j < otp.BlockSize; j++ {
				newCT[off+j] = plaintext[off+j] ^ pad[j]
			}
			for w := 0; w < wpb; w++ {
				bitutil.SetBit(newMod, blk*wpb+w, false)
			}
			continue
		}
		for w := 0; w < wpb; w++ {
			wordOff := off + w*s.p.WordBytes
			changed := false
			for j := 0; j < s.p.WordBytes; j++ {
				if oldPlain[wordOff+j] != plaintext[wordOff+j] {
					changed = true
					break
				}
			}
			if changed {
				bitutil.SetBit(newMod, blk*wpb+w, true)
			}
			if bitutil.GetBit(newMod, blk*wpb+w) {
				for j := 0; j < s.p.WordBytes; j++ {
					newCT[wordOff+j] = plaintext[wordOff+j] ^ pad[w*s.p.WordBytes+j]
				}
			}
		}
	}
	return s.observe(line, s.dev.Write(line, newCT, newMod), epochReset)
}

// ReadInto implements Scheme.
func (s *BLEDeuce) ReadInto(line uint64, dst []byte) {
	s.checkDst(dst)
	s.initLine(line)
	s.dev.ReadInto(line, s.scr.oldData, s.scr.oldMeta)
	s.decryptLineInto(dst, line, s.scr.oldData, s.scr.oldMeta)
}
