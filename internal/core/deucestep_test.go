package core

import (
	"fmt"
	"math/rand"
	"testing"

	"deuce/internal/bitutil"
	"deuce/internal/otp"
	"deuce/internal/pcmdev"
)

// This file keeps the decrypt-then-step DEUCE write as the reference the
// lane-mask kernels (deuceStepInto, dualDecryptInto) are checked against:
// rebuild the old plaintext with both pads, diff it word by word against
// the new plaintext, then re-encrypt every modified word byte by byte.

// refDualDecryptInto is the byte-loop reference for dualDecryptInto: the
// whole line under the trailing pad, then the modified words redone under
// the leading pad.
func refDualDecryptInto(dst []byte, gen *otp.Generator, line, ctr, epochMask uint64, wordBytes int, ct, mod []byte) {
	lpad := gen.Pad(line, ctr, len(ct))
	t := tctr(ctr, epochMask)
	if t == ctr {
		bitutil.XOR(dst, ct, lpad)
		return
	}
	bitutil.XOR(dst, ct, gen.Pad(line, t, len(ct)))
	for i := 0; i < len(ct)/wordBytes; i++ {
		if bitutil.GetBit(mod, i) {
			for j := i * wordBytes; j < (i+1)*wordBytes; j++ {
				dst[j] = ct[j] ^ lpad[j]
			}
		}
	}
}

// refDeuceStepInto is the reference for deuceStepInto: it diffs the new
// plaintext against the reconstructed old plaintext oldPlain.
func refDeuceStepInto(newCT, newMod []byte, gen *otp.Generator, line, ctr, epochMask uint64, wordBytes int,
	oldCT, oldMod, oldPlain, plaintext []byte) {

	words := len(plaintext) / wordBytes
	mb := metaBytes(words)
	if ctr&epochMask == 0 {
		gen.EncryptInto(newCT, line, ctr, plaintext)
		for i := range newMod[:mb] {
			newMod[i] = 0
		}
		return
	}
	copy(newMod[:mb], oldMod[:mb])
	for i := 0; i < words; i++ {
		if !bitutil.WordsEqual(oldPlain, plaintext, wordBytes, i) {
			bitutil.SetBit(newMod, i, true)
		}
	}
	lpad := gen.Pad(line, ctr, len(plaintext))
	copy(newCT, oldCT)
	for i := 0; i < words; i++ {
		if bitutil.GetBit(newMod, i) {
			for j := i * wordBytes; j < (i+1)*wordBytes; j++ {
				newCT[j] = plaintext[j] ^ lpad[j]
			}
		}
	}
}

// refDeuceWrite is Deuce.Write composed from the references.
func refDeuceWrite(s *Deuce, line uint64, pt []byte) pcmdev.WriteResult {
	s.initLine(line)
	oldCT, oldMod := s.dev.Peek(line)
	oldPlain := make([]byte, len(pt))
	refDualDecryptInto(oldPlain, s.gen, line, s.ctrs.Get(line), s.epochMask, s.p.WordBytes, oldCT, oldMod)
	ctr, _ := s.ctrs.Increment(line)
	newCT, newMod := make([]byte, len(oldCT)), make([]byte, len(oldMod))
	refDeuceStepInto(newCT, newMod, s.gen, line, ctr, s.epochMask, s.p.WordBytes, oldCT, oldMod, oldPlain, pt)
	return s.dev.Write(line, newCT, newMod)
}

// refDeuceFNWWrite is DeuceFNW.Write composed from the references.
func refDeuceFNWWrite(s *DeuceFNW, line uint64, pt []byte) pcmdev.WriteResult {
	s.initLine(line)
	oldCells, oldMeta := s.dev.Peek(line)
	oldMod, oldFlips := s.split(oldMeta)
	oldCT := s.codec.Decode(oldCells, oldFlips)
	oldPlain := make([]byte, len(pt))
	refDualDecryptInto(oldPlain, s.gen, line, s.ctrs.Get(line), s.epochMask, s.p.WordBytes, oldCT, oldMod)
	ctr, _ := s.ctrs.Increment(line)
	newCT, newMeta := make([]byte, len(pt)), make([]byte, len(oldMeta))
	newMod, newFlips := s.split(newMeta)
	refDeuceStepInto(newCT, newMod, s.gen, line, ctr, s.epochMask, s.p.WordBytes, oldCT, oldMod, oldPlain, pt)
	newCells := make([]byte, len(pt))
	s.codec.EncodeInto(newCells, newFlips, oldCells, oldFlips, newCT)
	return s.dev.Write(line, newCells, newMeta)
}

// refDynDeucePlain decrypts a DynDEUCE stored image through the reference.
func refDynDeucePlain(s *DynDeuce, line uint64, cells, meta []byte) []byte {
	out := make([]byte, len(cells))
	ctr := s.ctrs.Get(line)
	if bitutil.GetBit(meta, s.modeBit()) {
		s.codec.DecodeInto(out, cells, meta)
		s.gen.DecryptInto(out, line, ctr, out)
		return out
	}
	refDualDecryptInto(out, s.gen, line, ctr, s.epochMask, s.p.WordBytes, cells, meta)
	return out
}

// refDynDeuceWrite is DynDeuce.Write composed from the references: the
// old plaintext is rebuilt in every mode and the FNW candidate encrypted
// separately.
func refDynDeuceWrite(s *DynDeuce, line uint64, pt []byte) pcmdev.WriteResult {
	s.initLine(line)
	oldCells, oldMeta := s.dev.Peek(line)
	fnwMode := bitutil.GetBit(oldMeta, s.modeBit())
	oldPlain := refDynDeucePlain(s, line, oldCells, oldMeta)
	ctr, _ := s.ctrs.Increment(line)
	newCells, newMeta := make([]byte, len(pt)), make([]byte, len(oldMeta))
	switch {
	case ctr&s.epochMask == 0:
		s.gen.EncryptInto(newCells, line, ctr, pt)
	case fnwMode:
		fnwCT := s.gen.Encrypt(line, ctr, pt)
		s.codec.EncodeInto(newCells, newMeta, oldCells, oldMeta, fnwCT)
		bitutil.SetBit(newMeta, s.modeBit(), true)
	default:
		deuceCT, deuceMod := make([]byte, len(pt)), make([]byte, s.trackBytes)
		refDeuceStepInto(deuceCT, deuceMod, s.gen, line, ctr, s.epochMask, s.p.WordBytes, oldCells, oldMeta, oldPlain, pt)
		deuceCost := bitutil.Hamming(oldCells, deuceCT) + bitutil.Hamming(oldMeta[:s.trackBytes], deuceMod)
		fnwCT := s.gen.Encrypt(line, ctr, pt)
		if s.codec.CountFlips(oldCells, oldMeta, fnwCT)+1 < deuceCost {
			s.codec.EncodeInto(newCells, newMeta, oldCells, oldMeta, fnwCT)
			bitutil.SetBit(newMeta, s.modeBit(), true)
		} else {
			copy(newCells, deuceCT)
			copy(newMeta, deuceMod)
		}
	}
	return s.dev.Write(line, newCells, newMeta)
}

// stepScheme pairs a DEUCE-family scheme with its reference write and read.
type stepScheme struct {
	Scheme
	b        *base
	refWrite func(line uint64, pt []byte) pcmdev.WriteResult
	refRead  func(line uint64) []byte
}

// newStepScheme builds one of the three schemes that run deuceStepInto.
func newStepScheme(kind Kind, p Params) (stepScheme, error) {
	switch kind {
	case KindDeuce:
		s, err := NewDeuce(p)
		if err != nil {
			return stepScheme{}, err
		}
		return stepScheme{s, s.base,
			func(line uint64, pt []byte) pcmdev.WriteResult { return refDeuceWrite(s, line, pt) },
			func(line uint64) []byte {
				ct, mod := s.dev.Peek(line)
				out := make([]byte, len(ct))
				refDualDecryptInto(out, s.gen, line, s.ctrs.Get(line), s.epochMask, s.p.WordBytes, ct, mod)
				return out
			}}, nil
	case KindDeuceFNW:
		s, err := NewDeuceFNW(p)
		if err != nil {
			return stepScheme{}, err
		}
		return stepScheme{s, s.base,
			func(line uint64, pt []byte) pcmdev.WriteResult { return refDeuceFNWWrite(s, line, pt) },
			func(line uint64) []byte {
				cells, meta := s.dev.Peek(line)
				mod, flips := s.split(meta)
				out := make([]byte, len(cells))
				refDualDecryptInto(out, s.gen, line, s.ctrs.Get(line), s.epochMask, s.p.WordBytes, s.codec.Decode(cells, flips), mod)
				return out
			}}, nil
	case KindDynDeuce:
		s, err := NewDynDeuce(p)
		if err != nil {
			return stepScheme{}, err
		}
		return stepScheme{s, s.base,
			func(line uint64, pt []byte) pcmdev.WriteResult { return refDynDeuceWrite(s, line, pt) },
			func(line uint64) []byte {
				cells, meta := s.dev.Peek(line)
				return refDynDeucePlain(s, line, cells, meta)
			}}, nil
	}
	return stepScheme{}, fmt.Errorf("no DEUCE step in scheme %q", kind)
}

var stepKinds = []Kind{KindDeuce, KindDeuceFNW, KindDynDeuce}

// mutate applies one step of a mixed write stream to buf: mostly sparse
// word edits, some dense rewrites (which drive DynDEUCE into FNW mode) and
// some unchanged rewrites.
func mutate(rng *rand.Rand, buf []byte) {
	switch r := rng.Intn(10); {
	case r < 6:
		for n := 1 + rng.Intn(3); n > 0; n-- {
			buf[rng.Intn(len(buf))] = byte(rng.Int())
		}
	case r < 8:
		rng.Read(buf)
	}
}

// TestDeuceStepMatchesReference replays one write stream into each scheme
// through the lane-mask kernel and through the decrypt-then-step reference,
// and requires the same cells, metadata, counters, read-back and write cost
// after every write. 7-bit counters wrap within the stream.
func TestDeuceStepMatchesReference(t *testing.T) {
	const lines, writes = 2, 400
	for _, kind := range stepKinds {
		for _, wb := range []int{1, 2, 4, 8} {
			for _, epoch := range []int{1, 2, 4, 32} {
				for _, lb := range []int{64, 128} {
					name := fmt.Sprintf("%s/w%d/e%d/l%d", kind, wb, epoch, lb)
					p := Params{Lines: lines, LineBytes: lb, WordBytes: wb, EpochInterval: epoch, CounterBits: 7}
					got, err := newStepScheme(kind, p)
					if err != nil {
						t.Fatal(err)
					}
					ref, err := newStepScheme(kind, p)
					if err != nil {
						t.Fatal(err)
					}
					rng := rand.New(rand.NewSource(int64(wb*1000 + epoch*10 + lb)))
					shadow := make([][]byte, lines)
					for i := range shadow {
						shadow[i] = make([]byte, lb)
					}
					readBuf := make([]byte, lb)
					for i := 0; i < writes; i++ {
						line := uint64(rng.Intn(lines))
						mutate(rng, shadow[line])
						g := got.Write(line, shadow[line])
						r := ref.refWrite(line, shadow[line])
						if g.DataFlips != r.DataFlips || g.MetaFlips != r.MetaFlips || g.Slots != r.Slots {
							t.Fatalf("%s write %d: result %+v, reference %+v", name, i, g, r)
						}
						gc, gm := got.b.dev.Peek(line)
						rc, rm := ref.b.dev.Peek(line)
						if !bitutil.Equal(gc, rc) || !bitutil.Equal(gm, rm) {
							t.Fatalf("%s write %d: stored image differs from reference", name, i)
						}
						if gctr, rctr := got.b.ctrs.Get(line), ref.b.ctrs.Get(line); gctr != rctr {
							t.Fatalf("%s write %d: counter %d, reference %d", name, i, gctr, rctr)
						}
						if !bitutil.Equal(ref.refRead(line), shadow[line]) {
							t.Fatalf("%s write %d: reference read-back wrong", name, i)
						}
						if !bitutil.Equal(got.Read(line), shadow[line]) {
							t.Fatalf("%s write %d: Read wrong", name, i)
						}
						got.ReadInto(line, readBuf)
						if !bitutil.Equal(readBuf, shadow[line]) {
							t.Fatalf("%s write %d: ReadInto wrong", name, i)
						}
					}
					if got.b.ctrs.Overflows() == 0 {
						t.Fatalf("%s: counters never wrapped", name)
					}
				}
			}
		}
	}
}

// FuzzDeuceStep checks deuceStepInto and dualDecryptInto against the
// references on a fuzzed valid DEUCE state: an old plaintext, its modified
// bits and counter, and a new plaintext. sel picks the word width, epoch
// and line size.
func FuzzDeuceStep(f *testing.F) {
	f.Add(byte(0), uint16(5), []byte{1, 2, 3}, []byte{0x0f}, []byte{1, 2, 4})
	f.Add(byte(0x3f), uint16(31), make([]byte, 64), []byte{0xff, 0, 0xaa}, []byte{9})
	f.Add(byte(0x15), uint16(0), []byte{7}, []byte{}, make([]byte, 128))
	gen := otp.MustNewGenerator([]byte("0123456789abcdef"))
	f.Fuzz(func(t *testing.T, sel byte, ctr16 uint16, oldSeed, modSeed, newSeed []byte) {
		wb := []int{1, 2, 4, 8}[sel&3]
		epochMask := uint64([]int{1, 2, 4, 32}[sel>>2&3] - 1)
		lb := []int{64, 128}[sel>>4&1]
		const line = 3
		fill := func(seed []byte, n int) []byte {
			out := make([]byte, n)
			for i := range out {
				if len(seed) > 0 {
					out[i] = seed[i%len(seed)] ^ byte(i/len(seed))
				}
			}
			return out
		}
		oldPlain, plain := fill(oldSeed, lb), fill(newSeed, lb)
		oldMod := fill(modSeed, metaBytes(lb/wb))
		ctr := uint64(ctr16) + 1
		oldCtr := ctr - 1
		if oldCtr&epochMask == 0 {
			// Right after a boundary every modified bit is clear.
			oldMod = make([]byte, len(oldMod))
		}

		// Encode the old plaintext as the stored image a DEUCE line holds.
		lpad, tpad := gen.Pad(line, oldCtr, lb), gen.Pad(line, tctr(oldCtr, epochMask), lb)
		oldCT := make([]byte, lb)
		for i := range oldCT {
			pad := tpad
			if bitutil.GetBit(oldMod, i/wb) {
				pad = lpad
			}
			oldCT[i] = oldPlain[i] ^ pad[i]
		}

		pads := make([]byte, 2*lb)
		dec, refDec := make([]byte, lb), make([]byte, lb)
		dualDecryptInto(dec, gen, line, oldCtr, epochMask, wb, oldCT, oldMod, pads)
		refDualDecryptInto(refDec, gen, line, oldCtr, epochMask, wb, oldCT, oldMod)
		if !bitutil.Equal(dec, oldPlain) || !bitutil.Equal(refDec, oldPlain) {
			t.Fatal("old state does not decrypt to its plaintext")
		}

		newCT, newMod := make([]byte, lb), make([]byte, len(oldMod))
		refCT, refMod := make([]byte, lb), make([]byte, len(oldMod))
		deuceStepInto(newCT, newMod, gen, line, ctr, epochMask, wb, oldCT, oldMod, plain, pads)
		refDeuceStepInto(refCT, refMod, gen, line, ctr, epochMask, wb, oldCT, oldMod, oldPlain, plain)
		if !bitutil.Equal(newCT, refCT) || !bitutil.Equal(newMod, refMod) {
			t.Fatalf("step differs from reference: ct %x / %x, mod %x / %x", newCT, refCT, newMod, refMod)
		}
		if !bitutil.Equal(pads[:lb], gen.Pad(line, ctr, lb)) {
			t.Fatal("pads does not hold the LCTR pad after the step")
		}
		dualDecryptInto(dec, gen, line, ctr, epochMask, wb, newCT, newMod, pads)
		if !bitutil.Equal(dec, plain) {
			t.Fatal("new state does not decrypt to the written plaintext")
		}
	})
}

// TestDeucePadsPerWrite pins the pads a write derives, counted by the
// generator (a PadPairInto counts two): two mid-epoch (LCTR and TCTR) and
// one at an epoch boundary, and for DynDEUCE one in FNW mode, where the
// line re-encrypts whole.
func TestDeucePadsPerWrite(t *testing.T) {
	for _, kind := range stepKinds {
		s, err := newStepScheme(kind, Params{Lines: 2, EpochInterval: 8})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(5))
		buf := make([]byte, 64)
		s.Write(0, buf) // install, off the count
		seen := map[string]int{}
		for i := 0; i < 200; i++ {
			mutate(rng, buf)
			_, meta := s.b.dev.Peek(0)
			want, what := 2, "mid-epoch"
			switch {
			case (s.b.ctrs.Get(0)+1)&uint64(s.b.p.EpochInterval-1) == 0:
				want, what = 1, "boundary"
			case kind == KindDynDeuce && bitutil.GetBit(meta, s.b.words()):
				want, what = 1, "fnw-mode"
			}
			before := s.b.gen.PadsDerived()
			s.Write(0, buf)
			if got := int(s.b.gen.PadsDerived() - before); got != want {
				t.Fatalf("%s write %d (%s): derived %d pads, want %d", kind, i, what, got, want)
			}
			seen[what]++
		}
		if seen["boundary"] == 0 || seen["mid-epoch"] == 0 || (kind == KindDynDeuce && seen["fnw-mode"] == 0) {
			t.Fatalf("%s: stream missed a case: %v", kind, seen)
		}
	}
}
