package pcmdev

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// The tracked-word rule is DEUCE's write (paper §4): a line's cells are
// split into tracking words of w bytes, one metadata cell per word records
// whether the word has been re-programmed since the last reset, and a write
// re-programs a word to pt ^ padL, setting its bit, when its stored cells
// differ from pt ^ padT or its bit is already set. A reset re-programs every
// word and clears every bit. The rule is stated here once, in its lane
// form: internal/core's read and fallback write paths and WriteTracked all
// go through Lanes.

// Lanes holds, for one word width, the two translations the lane form of
// the rule needs between an 8-byte lane and its group of 8/w word bits.
// Since 8/w divides 8, a lane's group never straddles a metadata byte:
// lane k's bits are bits k·8/w … k·8/w+8/w−1 of the metadata image.
type Lanes struct {
	bits uint  // word bits per lane (8/w)
	mask uint8 // 1<<bits − 1
	log  uint  // log2(w)
	// words maps a lane's nonzero-byte pattern (bit i: byte i nonzero) to
	// its nonzero-word bits (bit j: word j has a nonzero byte).
	words [256]uint8
	// expand maps a lane's word bits to a byte mask: 0xff on every byte of
	// a word whose bit is set. Only the first 1<<bits entries are used.
	expand [256]uint64
}

// laneTabs is indexed by word width in bytes (1, 2, 4 or 8); it is filled
// once at package initialization.
var laneTabs = func() (t [9]*Lanes) {
	for _, w := range []int{1, 2, 4, 8} {
		lt := &Lanes{bits: uint(8 / w), log: uint(bits.TrailingZeros(uint(w)))}
		lt.mask = uint8(1<<lt.bits - 1)
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

// LanesFor returns the lane tables for tracking words of w bytes. It
// panics unless w is 1, 2, 4 or 8.
func LanesFor(w int) *Lanes {
	if w < 1 || w > 8 || laneTabs[w] == nil {
		panic(fmt.Sprintf("pcmdev: tracking word of %d bytes, want 1, 2, 4 or 8", w))
	}
	return laneTabs[w]
}

// Group returns the word bits of lane k from a metadata image.
func (lt *Lanes) Group(meta []byte, k int) uint8 {
	off := uint(k) * lt.bits
	return meta[off>>3] >> (off & 7) & lt.mask
}

// OrGroup sets the word bits g of lane k in a metadata image.
func (lt *Lanes) OrGroup(meta []byte, k int, g uint8) {
	off := uint(k) * lt.bits
	meta[off>>3] |= g << (off & 7)
}

// Select returns a on the words whose bit in g is clear and b on the
// words whose bit is set.
func (lt *Lanes) Select(g uint8, a, b uint64) uint64 {
	m := lt.expand[g]
	return a&^m | b&m
}

// Step applies the rule to one lane off a reset: ct is the stored lane, g
// its word bits, pt the new plaintext and padL, padT the two pads. It
// returns the lane to store and its new word bits:
//
//	g' = g | nonzeroWords(ct ^ padT ^ pt)
//	ct' = ct on the words clear in g', pt ^ padL on the words set in g'
func (lt *Lanes) Step(g uint8, ct, pt, padL, padT uint64) (uint64, uint8) {
	g |= lt.words[nonzeroBytes(ct^padT^pt)]
	return lt.Select(g, ct, pt^padL), g
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

// WriteTracked applies the tracked-word rule to a line whose metadata
// cells are its word bits (MetaBits = LineBytes/wordBytes) and stores the
// result with Write's Data Comparison Write accounting: the same cells,
// WriteResult, statistics and wear. pt, padL and padT are LineBytes long;
// with reset every word is re-programmed to pt ^ padL, every bit cleared,
// and padT is ignored (it may be nil). Metadata padding bits past MetaBits
// are kept as stored.
//
// It is one pass over 64-byte chunks of the live page: per chunk the rule
// builds the new lanes and their DCW diff words in registers, the diff
// words are staged and counted per slot, and the chunk's cells are stored
// only when the diff is nonzero, so a write that programs nothing stores
// nothing. A partial last chunk (LineBytes mod 64 of 16, 32 or 48) goes
// through zero-padded copies, whose padding lanes never differ.
func (d *Device) WriteTracked(line uint64, pt, padL, padT []byte, wordBytes int, reset bool) WriteResult {
	line = d.locate(line)
	lt := LanesFor(wordBytes)
	if d.cfg.MetaBits != d.lineBytes>>lt.log {
		panic(fmt.Sprintf("pcmdev: tracked write of %d-byte words to a line with %d metadata cells", wordBytes, d.cfg.MetaBits))
	}
	if len(pt) != d.lineBytes || len(padL) != d.lineBytes || !reset && len(padT) != d.lineBytes {
		panic(fmt.Sprintf("pcmdev: tracked write of %d/%d/%d bytes to %d-byte line", len(pt), len(padL), len(padT), d.lineBytes))
	}

	p := d.page(line)
	d.checkPage(line, p)
	data, meta := p[:d.lineBytes], p[d.lineBytes:]
	stage, r := d.stage, d.nstaged&(stageDepth-1)
	dataWords := d.lineBytes / 8
	res := WriteResult{}
	slots := d.slotScratch[:0]

	// A chunk's word bits are 64/w bits, 8/w whole metadata bytes; w
	// chunks fill one 64-cell metadata wear word, accumulated in macc.
	// Word widths are powers of two, so the divisions are shifts.
	chunkMeta, chunkBits, wm := 8>>lt.log, uint(64)>>lt.log, wordBytes-1
	var macc uint64
	for off, ci := 0, 0; off < d.lineBytes; off, ci = off+64, ci+1 {
		var cur, q, l, t *[64]byte
		var cm []byte // the chunk's metadata bytes
		partial := d.lineBytes-off < 64
		if partial {
			tail := d.tail
			*tail = [4][64]byte{}
			copy(tail[0][:], data[off:])
			copy(tail[1][:], pt[off:])
			copy(tail[2][:], padL[off:])
			if !reset {
				copy(tail[3][:], padT[off:])
			}
			cur, q, l, t = &tail[0], &tail[1], &tail[2], &tail[3]
			cm = meta[ci*chunkMeta:]
		} else {
			cur, q, l = (*[64]byte)(data[off:off+64]), (*[64]byte)(pt[off:off+64]), (*[64]byte)(padL[off:off+64])
			if !reset {
				t = (*[64]byte)(padT[off : off+64])
			}
			cm = meta[ci*chunkMeta : ci*chunkMeta+chunkMeta]
		}

		gm := loadWord(cm)
		var x [8]uint64
		md := gm ^ trackChunk(lt, &x, cur, q, l, t, gm, reset)
		if partial {
			// Bits past MetaBits are padding; they keep their cells.
			md &= uint64(1)<<(uint(d.lineBytes-off)>>lt.log) - 1
		}

		if x[0]|x[1]|x[2]|x[3]|x[4]|x[5]|x[6]|x[7] != 0 {
			for j := range x {
				binary.LittleEndian.PutUint64(cur[8*j:], binary.LittleEndian.Uint64(cur[8*j:])^x[j])
			}
			if partial {
				copy(data[off:], cur[:])
			}
		}
		if md != 0 {
			v := gm ^ md
			for i := range cm {
				cm[i] = byte(v >> (8 * i))
			}
			res.MetaFlips += bits.OnesCount64(md)
		}

		// Stage and count the data diff, one 128-bit slot at a time.
		if partial {
			for j := 0; j < dataWords-ci*8; j++ {
				stage[ci*8+j][r] = x[j]
			}
		} else {
			st := (*[8][stageDepth]uint64)(stage[ci*8 : ci*8+8])
			for j := range x {
				st[j][r] = x[j]
			}
		}
		for j := 0; j < 8; j += SlotBits / 64 {
			if f := bits.OnesCount64(x[j]) + bits.OnesCount64(x[j+1]); f > 0 {
				slots = append(slots, f)
				res.DataFlips += f
			}
		}

		macc |= md << (uint(ci&wm) * chunkBits)
		if ci&wm == wm || off+64 >= d.lineBytes {
			stage[dataWords+ci>>lt.log][r] = macc
			macc = 0
		}
	}
	d.slotScratch = slots
	res.Slots, res.SlotFlips = len(slots), slots
	d.commit(line, p, r, &res)
	return res
}

// trackChunk applies the rule to the eight lanes of one 64-byte chunk: cur
// holds the stored cells and gm their word bits (lane j's group at bit
// j·8/w). It fills x with each lane's DCW diff, the stored lane XOR the
// lane to store, and returns the new word bits. padT is unused, and may be
// nil, on a reset.
//
// Off a reset the eight lanes are written out one by one: constant
// offsets into the array pointers need no bounds check or index
// arithmetic, and the lane values stay in registers. As a loop over j the
// same step spilled and reloaded its operands every lane, and a tracked
// write took about a quarter longer (BenchmarkWriteTracked64).
func trackChunk(lt *Lanes, x *[8]uint64, cur, pt, padL, padT *[64]byte, gm uint64, reset bool) uint64 {
	le := binary.LittleEndian
	if reset {
		for j := range x {
			x[j] = le.Uint64(cur[8*j:]) ^ le.Uint64(pt[8*j:]) ^ le.Uint64(padL[8*j:])
		}
		return 0
	}
	b, m := lt.bits, lt.mask
	o0 := le.Uint64(cur[0:])
	n0, g0 := lt.Step(uint8(gm)&m, o0, le.Uint64(pt[0:]), le.Uint64(padL[0:]), le.Uint64(padT[0:]))
	x[0] = o0 ^ n0
	o1 := le.Uint64(cur[8:])
	n1, g1 := lt.Step(uint8(gm>>(b))&m, o1, le.Uint64(pt[8:]), le.Uint64(padL[8:]), le.Uint64(padT[8:]))
	x[1] = o1 ^ n1
	o2 := le.Uint64(cur[16:])
	n2, g2 := lt.Step(uint8(gm>>(2*b))&m, o2, le.Uint64(pt[16:]), le.Uint64(padL[16:]), le.Uint64(padT[16:]))
	x[2] = o2 ^ n2
	o3 := le.Uint64(cur[24:])
	n3, g3 := lt.Step(uint8(gm>>(3*b))&m, o3, le.Uint64(pt[24:]), le.Uint64(padL[24:]), le.Uint64(padT[24:]))
	x[3] = o3 ^ n3
	o4 := le.Uint64(cur[32:])
	n4, g4 := lt.Step(uint8(gm>>(4*b))&m, o4, le.Uint64(pt[32:]), le.Uint64(padL[32:]), le.Uint64(padT[32:]))
	x[4] = o4 ^ n4
	o5 := le.Uint64(cur[40:])
	n5, g5 := lt.Step(uint8(gm>>(5*b))&m, o5, le.Uint64(pt[40:]), le.Uint64(padL[40:]), le.Uint64(padT[40:]))
	x[5] = o5 ^ n5
	o6 := le.Uint64(cur[48:])
	n6, g6 := lt.Step(uint8(gm>>(6*b))&m, o6, le.Uint64(pt[48:]), le.Uint64(padL[48:]), le.Uint64(padT[48:]))
	x[6] = o6 ^ n6
	o7 := le.Uint64(cur[56:])
	n7, g7 := lt.Step(uint8(gm>>(7*b))&m, o7, le.Uint64(pt[56:]), le.Uint64(padL[56:]), le.Uint64(padT[56:]))
	x[7] = o7 ^ n7
	return uint64(g0) | uint64(g1)<<(b) | uint64(g2)<<(2*b) | uint64(g3)<<(3*b) | uint64(g4)<<(4*b) | uint64(g5)<<(5*b) | uint64(g6)<<(6*b) | uint64(g7)<<(7*b)
}
