// Package otp implements the counter-mode one-time-pad generation that all
// encrypted-memory schemes in this repository share (paper §2.3-§2.4).
//
// A pad is the output of a block cipher (AES-128) applied to a tweak built
// from the secret key, the line address, the per-line write counter, and the
// index of the 16-byte AES block inside the cache line:
//
//	pad_block = AES_K( lineAddr ‖ counter ‖ blockIdx )
//
// The pad is XORed with the plaintext to encrypt and with the ciphertext to
// decrypt. Security rests entirely on pad uniqueness: the same
// (key, lineAddr, counter, blockIdx) tuple must never encrypt two different
// values. The schemes in internal/core are responsible for incrementing
// counters appropriately; this package guarantees only that distinct tuples
// give independent pseudorandom pads.
//
// The paper's hardware has dedicated AES pipelines that produce pads in
// parallel with the PCM array access. In this simulator pad generation is
// a function call; the latency aspect is modelled separately by
// internal/timing. On amd64 with AES-NI the call is an assembly kernel
// that runs eight blocks through interleaved AESENC chains (a 128-byte
// line's pad, or a 64-byte line's LCTR and TCTR pads together via
// PadPairInto); elsewhere it is a crypto/aes loop. Both produce the same
// bytes.
//
// The ...Into variants (PadInto, PadPairInto, EncryptInto, BlockPadInto)
// write into caller-owned buffers and perform no heap allocation in steady
// state; they are the hot-path API the schemes in internal/core use.
// Pad and Encrypt are allocating conveniences layered on top, for
// one-time installs and examples.
package otp

import (
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"fmt"

	"deuce/internal/bitutil"
)

// BlockSize is the AES block size in bytes. Pads are generated in units of
// this size; a 64-byte cache line needs four blocks.
const BlockSize = 16

// MaxPadBlocks is the most AES blocks one pad may span. The tweak carries
// the block index in 8 bits, so a 257th block would reuse block 0's pad;
// PadInto and PadPairInto refuse longer pads (4096 bytes).
const MaxPadBlocks = 256

// runBlocks is the kernel's unit of work: a run of four consecutive blocks
// of one pad. A kernel call encrypts one run or two.
const runBlocks = 4

// Generator produces one-time pads for a fixed secret key.
//
// A Generator is NOT safe for concurrent use: its kernel and encrypt
// scratch buffers and its pad counter are unguarded mutable state. The
// contract throughout this repository is one Generator per goroutine — the
// experiment harness constructs a fresh scheme (and therefore a fresh
// Generator) per sweep cell, and the -race regression test in
// otp_race_test.go pins that usage down.
type Generator struct {
	block cipher.Block

	// xk is the FIPS-197 expansion of the key, the round keys the AES-NI
	// kernel reads. kernel selects that kernel; it is haveAESNI at
	// construction, and tests clear it to force the crypto/aes loop.
	xk     [roundKeyBytes]byte
	kernel bool

	// pads counts the pads derived: one per line pad or block pad, two
	// per PadPairInto.
	pads uint64

	// scratch backs EncryptInto's pad so steady-state encryption performs
	// no heap allocation; grown on demand, never shared across calls.
	scratch []byte

	// tail takes the last, partial run of each of up to two pads, whose
	// blocks beyond the pad's end are computed and dropped; the crypto/aes
	// loop uses its first block as the tweak. A local array would escape
	// to the heap (the cipher.Block interface call defeats escape
	// analysis); as a field it is allocated once with the Generator.
	tail [2 * runBlocks * BlockSize]byte
}

// NewGenerator returns a Generator for the given 16-byte AES-128 key.
func NewGenerator(key []byte) (*Generator, error) {
	if len(key) != 16 {
		return nil, fmt.Errorf("otp: key must be 16 bytes for AES-128, got %d", len(key))
	}
	b, err := aes.NewCipher(key)
	if err != nil {
		return nil, fmt.Errorf("otp: %w", err)
	}
	g := &Generator{block: b, kernel: haveAESNI}
	expandKey(&g.xk, key)
	return g, nil
}

// MustNewGenerator is NewGenerator for static keys known to be valid.
func MustNewGenerator(key []byte) *Generator {
	g, err := NewGenerator(key)
	if err != nil {
		panic(err)
	}
	return g
}

// PadsDerived returns the number of pads derived since creation: one per
// PadInto (and so per EncryptInto), one per block pad, two per
// PadPairInto.
func (g *Generator) PadsDerived() uint64 { return g.pads }

// PadInto fills dst with the pad for (lineAddr, counter). len(dst) must be a
// multiple of BlockSize and at most MaxPadBlocks blocks. Block i of dst is
// AES_K(lineAddr ‖ counter ‖ i). It performs no heap allocation.
func (g *Generator) PadInto(dst []byte, lineAddr, counter uint64) {
	n := padBlocks(len(dst))
	g.pads++
	g.derive(dst, lineAddr, [2]uint64{counter}, 1, n)
}

// PadPairInto fills dst with two pads of one line back to back: the first
// half is the pad for (lineAddr, ctrA), the second the pad for
// (lineAddr, ctrB), each as PadInto would derive it. On a 64-byte line the
// two pads are one eight-block kernel call — the software image of the two
// AES engines DEUCE runs side by side for its LCTR and TCTR pads. len(dst)
// must be an even number of blocks, each half at most MaxPadBlocks.
func (g *Generator) PadPairInto(dst []byte, lineAddr, ctrA, ctrB uint64) {
	if len(dst)%(2*BlockSize) != 0 {
		panic(fmt.Sprintf("otp: pad pair length %d not a multiple of %d", len(dst), 2*BlockSize))
	}
	n := padBlocks(len(dst) / 2)
	g.pads += 2
	g.derive(dst, lineAddr, [2]uint64{ctrA, ctrB}, 2, n)
}

// padBlocks returns the blocks in an n-byte pad, panicking on a length the
// tweak cannot cover.
func padBlocks(n int) int {
	if n%BlockSize != 0 {
		panic(fmt.Sprintf("otp: pad length %d not a multiple of %d", n, BlockSize))
	}
	if n > MaxPadBlocks*BlockSize {
		panic(fmt.Sprintf("otp: pad length %d exceeds %d blocks; block indices would wrap", n, MaxPadBlocks))
	}
	return n / BlockSize
}

// Pad returns an n-byte pad for (lineAddr, counter). n must be a multiple of
// BlockSize. Block i of the result is AES_K(lineAddr ‖ counter ‖ i).
func (g *Generator) Pad(lineAddr, counter uint64, n int) []byte {
	out := make([]byte, n)
	g.PadInto(out, lineAddr, counter)
	return out
}

// BlockPadInto fills dst (BlockSize bytes) with the single pad block for AES
// block blockIdx of the line, used by Block-Level Encryption where each
// 16-byte block carries its own counter. It equals
// Pad(lineAddr, counter, (blockIdx+1)*16)[blockIdx*16:].
func (g *Generator) BlockPadInto(dst []byte, lineAddr, counter uint64, blockIdx int) {
	if len(dst) != BlockSize {
		panic(fmt.Sprintf("otp: block pad length %d, want %d", len(dst), BlockSize))
	}
	if blockIdx < 0 || blockIdx >= MaxPadBlocks {
		panic(fmt.Sprintf("otp: block index %d outside [0, %d)", blockIdx, MaxPadBlocks))
	}
	// One block has nothing to interleave: both paths use crypto/aes.
	g.pads++
	g.block.Encrypt(dst, g.tweak(lineAddr, counter, blockIdx))
}

// derive fills dst with npads pads of n blocks each for lineAddr, pad q
// under counter ctrs[q]. Block i of a pad is AES_K of the tweak
// lineAddr ‖ counter<<8 | i, both halves little-endian: 56 bits of counter
// and 8 of block index (line counters in the paper are 28 bits, so 56 is
// ample headroom; padBlocks keeps i below 256).
//
// The kernel splits each pad into runs of four blocks and encrypts two runs
// per call, so a 64-byte line's pad pair, or a 128-byte line's pad, is one
// call with eight blocks in flight. A pad's last run, when partial, lands
// in the tail scratch and is copied out once every call has been made.
func (g *Generator) derive(dst []byte, lineAddr uint64, ctrs [2]uint64, npads, n int) {
	if !g.kernel {
		for q := 0; q < npads; q++ {
			for i := 0; i < n; i++ {
				off := (q*n + i) * BlockSize
				g.block.Encrypt(dst[off:off+BlockSize], g.tweak(lineAddr, ctrs[q], i))
			}
		}
		return
	}
	var held *byte // a run waiting for a second run to share a call
	var heldHi uint64
	for q := 0; q < npads; q++ {
		for i := 0; i < n; i += runBlocks {
			out := g.tail[q*runBlocks*BlockSize:]
			if i+runBlocks <= n {
				out = dst[(q*n+i)*BlockSize:]
			}
			hi := ctrs[q]<<8 | uint64(i)
			if held == nil {
				held, heldHi = &out[0], hi
				continue
			}
			encrypt8(&g.xk, held, &out[0], lineAddr, heldHi, hi)
			held = nil
		}
	}
	if held != nil {
		encrypt4(&g.xk, held, lineAddr, heldHi)
	}
	if r := n % runBlocks; r != 0 {
		for q := 0; q < npads; q++ {
			copy(dst[((q+1)*n-r)*BlockSize:(q+1)*n*BlockSize], g.tail[q*runBlocks*BlockSize:])
		}
	}
}

// tweak writes the AES input for block blockIdx of the pad for
// (lineAddr, counter) into the tail scratch and returns it.
func (g *Generator) tweak(lineAddr, counter uint64, blockIdx int) []byte {
	t := g.tail[:BlockSize]
	binary.LittleEndian.PutUint64(t[0:8], lineAddr)
	binary.LittleEndian.PutUint64(t[8:16], counter<<8|uint64(blockIdx))
	return t
}

// scratchPad returns the generator-owned scratch buffer resized to n bytes.
func (g *Generator) scratchPad(n int) []byte {
	if cap(g.scratch) < n {
		g.scratch = make([]byte, n)
	}
	return g.scratch[:n]
}

// EncryptInto XORs plaintext with the pad for (lineAddr, counter) into dst.
// dst and plaintext must have equal length; dst may alias plaintext. The
// pad comes from the generator's scratch buffer, so steady-state calls are
// allocation-free.
func (g *Generator) EncryptInto(dst []byte, lineAddr, counter uint64, plaintext []byte) {
	if len(dst) != len(plaintext) {
		panic(fmt.Sprintf("otp: EncryptInto on mismatched lengths %d and %d", len(dst), len(plaintext)))
	}
	pad := g.scratchPad(padLen(len(plaintext)))
	g.PadInto(pad, lineAddr, counter)
	XorInto(dst, plaintext, pad)
}

// DecryptInto is the inverse of EncryptInto (XOR with the same pad).
func (g *Generator) DecryptInto(dst []byte, lineAddr, counter uint64, ciphertext []byte) {
	g.EncryptInto(dst, lineAddr, counter, ciphertext)
}

// Encrypt XORs plaintext with the pad for (lineAddr, counter) and returns the
// ciphertext. Convenience for schemes that re-encrypt whole lines.
func (g *Generator) Encrypt(lineAddr, counter uint64, plaintext []byte) []byte {
	out := make([]byte, len(plaintext))
	g.EncryptInto(out, lineAddr, counter, plaintext)
	return out
}

// XorInto writes src XOR pad into dst word-parallel. pad may be longer than
// src (pads are generated in BlockSize units); dst may alias src.
func XorInto(dst, src, pad []byte) {
	if len(dst) != len(src) || len(pad) < len(src) {
		panic(fmt.Sprintf("otp: XorInto on lengths dst=%d src=%d pad=%d", len(dst), len(src), len(pad)))
	}
	bitutil.XOR(dst, src, pad[:len(src)])
}

func padLen(n int) int {
	if n%BlockSize == 0 {
		return n
	}
	return (n/BlockSize + 1) * BlockSize
}
