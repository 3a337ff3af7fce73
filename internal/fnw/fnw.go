// Package fnw implements Flip-N-Write (Cho & Lee, MICRO 2009 — paper ref
// [8]): before writing a w-bit word over an existing stored word, compare
// the cost of writing it as-is against writing its bitwise complement, and
// store whichever needs fewer cell programs, recording the choice in a flip
// bit per word.
//
// The paper evaluates FNW at a two-byte granularity (one flip bit per 16
// data bits, 32 flip bits per 64-byte line, §1) and counts flip-bit changes
// in the figure of merit. The codec here works at any power-of-two byte
// granularity so the FNW-granularity ablation can sweep it.
//
// FNW guarantees at most ⌊(w+1)/2⌋ programmed cells per word including the
// flip bit, because cost(keep) + cost(invert) = w + 1 for every word.
//
// Concurrency: the codec is pure functions over caller-owned slices with
// no package state; calls from different goroutines on different data
// need no synchronization.
package fnw

import (
	"fmt"

	"deuce/internal/bitutil"
)

// DefaultWordBytes is the paper's FNW granularity (two bytes).
const DefaultWordBytes = 2

// Codec encodes and decodes FNW line images at a fixed word granularity.
// The zero value is invalid; use New.
type Codec struct {
	wordBytes int
}

// New returns a Codec with the given word granularity in bytes (1, 2, 4 or
// 8 — the granularities the paper's Figure 8 discussion considers).
func New(wordBytes int) (*Codec, error) {
	switch wordBytes {
	case 1, 2, 4, 8:
		return &Codec{wordBytes: wordBytes}, nil
	default:
		return nil, fmt.Errorf("fnw: unsupported word granularity %d bytes", wordBytes)
	}
}

// MustNew is New for granularities known to be valid.
func MustNew(wordBytes int) *Codec {
	c, err := New(wordBytes)
	if err != nil {
		panic(err)
	}
	return c
}

// WordBytes returns the codec granularity in bytes.
func (c *Codec) WordBytes() int { return c.wordBytes }

// Words returns the number of FNW words in a line of lineBytes bytes.
func (c *Codec) Words(lineBytes int) int { return lineBytes / c.wordBytes }

// FlipBits returns the number of flip bits (metadata cells) per line, one
// per word.
func (c *Codec) FlipBits(lineBytes int) int { return c.Words(lineBytes) }

// EncodeInto computes the stored image for writing logical over the
// current stored image, into caller-owned buffers without allocating.
// storedData are the raw cells currently in the array, storedFlips the
// current flip bits (one bit per word, little-endian in a byte slice of
// ⌈words/8⌉ bytes; bits past the word count are neither read nor
// preserved); it does not mutate its inputs. newData must match the line
// length and newFlips must hold at least ⌈words/8⌉ bytes; every word's
// flip bit is written explicitly (set or cleared), while flip-buffer bits
// past the word count are left untouched —
// callers that reuse a scratch buffer must manage any trailing bits (such as
// DynDEUCE's mode bit) themselves. newData/newFlips must not alias the
// inputs.
func (c *Codec) EncodeInto(newData, newFlips, storedData, storedFlips, logical []byte) {
	c.checkLens(storedData, storedFlips, logical)
	if len(newData) != len(logical) {
		panic(fmt.Sprintf("fnw: EncodeInto output of %d bytes for %d-byte line", len(newData), len(logical)))
	}
	if len(newFlips) < (c.Words(len(logical))+7)/8 {
		panic(fmt.Sprintf("fnw: EncodeInto flip buffer too short: %d bytes for %d words",
			len(newFlips), c.Words(len(logical))))
	}
	w := c.wordBytes
	words := len(logical) / w
	var invBuf [8]byte // max word granularity, keeps the loop allocation-free
	inv := invBuf[:w]
	for i := 0; i < words; i++ {
		off := i * w
		stored := storedData[off : off+w]
		plain := logical[off : off+w]
		bitutil.Invert(inv, plain)
		flipSet := bitutil.GetBit(storedFlips, i)

		costKeep := bitutil.Hamming(stored, plain)
		if flipSet {
			costKeep++ // flip bit 1 -> 0
		}
		costInv := bitutil.Hamming(stored, inv)
		if !flipSet {
			costInv++ // flip bit 0 -> 1
		}
		if costInv < costKeep {
			copy(newData[off:off+w], inv)
			bitutil.SetBit(newFlips, i, true)
		} else {
			copy(newData[off:off+w], plain)
			bitutil.SetBit(newFlips, i, false)
		}
	}
}

// CountFlips returns the number of cell programs (data + flip bits) that
// EncodeInto would incur, without materializing the encoding. DynDEUCE uses
// this to estimate the FNW cost of a write (paper §4.6, Figure 11).
// It does not allocate.
func (c *Codec) CountFlips(storedData, storedFlips, logical []byte) int {
	c.checkLens(storedData, storedFlips, logical)
	w := c.wordBytes
	words := len(logical) / w
	var invBuf [8]byte
	inv := invBuf[:w]
	total := 0
	for i := 0; i < words; i++ {
		off := i * w
		stored := storedData[off : off+w]
		plain := logical[off : off+w]
		bitutil.Invert(inv, plain)
		flipSet := bitutil.GetBit(storedFlips, i)

		costKeep := bitutil.Hamming(stored, plain)
		if flipSet {
			costKeep++
		}
		costInv := bitutil.Hamming(stored, inv)
		if !flipSet {
			costInv++
		}
		if costInv < costKeep {
			total += costInv
		} else {
			total += costKeep
		}
	}
	return total
}

// DecodeInto recovers the logical value from a stored image into dst:
// words whose flip bit is set are inverted back. dst must match the line
// length; it may alias storedData (the inversion is in place per word).
func (c *Codec) DecodeInto(dst, storedData, storedFlips []byte) {
	if len(dst) != len(storedData) {
		panic(fmt.Sprintf("fnw: DecodeInto output of %d bytes for %d-byte line", len(dst), len(storedData)))
	}
	if len(storedFlips) < (c.Words(len(storedData))+7)/8 {
		panic(fmt.Sprintf("fnw: flip-bit slice too short: %d bytes for %d words",
			len(storedFlips), c.Words(len(storedData))))
	}
	w := c.wordBytes
	copy(dst, storedData)
	for i := 0; i < len(storedData)/w; i++ {
		if bitutil.GetBit(storedFlips, i) {
			off := i * w
			bitutil.Invert(dst[off:off+w], dst[off:off+w])
		}
	}
}

// MaxFlipsPerWord returns the FNW worst-case cell programs per word
// including the flip bit: ⌊(w_bits+1)/2⌋.
func (c *Codec) MaxFlipsPerWord() int { return (c.wordBytes*8 + 1) / 2 }

func (c *Codec) checkLens(storedData, storedFlips, logical []byte) {
	if len(storedData) != len(logical) {
		panic(fmt.Sprintf("fnw: stored/logical length mismatch %d vs %d", len(storedData), len(logical)))
	}
	if len(logical)%c.wordBytes != 0 {
		panic(fmt.Sprintf("fnw: line length %d not a multiple of word size %d", len(logical), c.wordBytes))
	}
	if len(storedFlips) < (c.Words(len(logical))+7)/8 {
		panic(fmt.Sprintf("fnw: flip-bit slice too short: %d bytes for %d words",
			len(storedFlips), c.Words(len(logical))))
	}
}
