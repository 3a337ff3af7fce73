package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"deuce/internal/backend"
	"deuce/internal/bitutil"
	"deuce/internal/otp"
	"deuce/internal/pcmdev"
	"deuce/internal/wear"
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
	oldMod, oldFlips := s.meta.split(oldMeta, s.meta.scratch())
	oldCT := make([]byte, len(pt))
	s.codec.DecodeInto(oldCT, oldCells, oldFlips)
	oldPlain := make([]byte, len(pt))
	refDualDecryptInto(oldPlain, s.gen, line, s.ctrs.Get(line), s.epochMask, s.p.WordBytes, oldCT, oldMod)
	ctr, _ := s.ctrs.Increment(line)
	newCT, newMeta := make([]byte, len(pt)), make([]byte, len(oldMeta))
	newMod, newFlips := s.meta.split(newMeta, s.meta.scratch())
	refDeuceStepInto(newCT, newMod, s.gen, line, ctr, s.epochMask, s.p.WordBytes, oldCT, oldMod, oldPlain, pt)
	newCells := make([]byte, len(pt))
	s.codec.EncodeInto(newCells, newFlips, oldCells, oldFlips, newCT)
	s.meta.join(newMeta, newMod, newFlips)
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
				mod, flips := s.meta.split(meta, s.meta.scratch())
				ct, out := make([]byte, len(cells)), make([]byte, len(cells))
				s.codec.DecodeInto(ct, cells, flips)
				refDualDecryptInto(out, s.gen, line, s.ctrs.Get(line), s.epochMask, s.p.WordBytes, ct, mod)
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

// stepWay is one array a scheme's write runs over.
type stepWay struct {
	name string
	set  func(*Params)
	// leveled puts the reference on the same wear-leveled array: where a
	// write's flips land depends on the remap.
	leveled bool
}

// leveledWay runs a write over a wear-leveled memory, remapped every
// third write.
func leveledWay(name string, make func(wear.StartGapConfig) func(pcmdev.Config) (pcmdev.Array, error), mode wear.Mode, free bool) stepWay {
	arr := make(wear.StartGapConfig{Psi: 3, Mode: mode, FreeGapMoves: free})
	return stepWay{name, func(p *Params) { p.MakeArray = arr }, true}
}

var (
	// bareWay is the bare RAM device: DEUCE's one-pass WriteTracked.
	bareWay = stepWay{"bare", func(*Params) {}, false}
	// deuceWays runs KindDeuce's one write path, WriteTracked, over
	// every device it meets and over the device's page-copy path: the
	// bare RAM device, a device under the integrity guard (which panics
	// on any read it cannot verify), a bare device on a backend without
	// the zero-copy page view (CrashSim buffers every WritePage), and the
	// remapped devices of Start-Gap (HWL and hashed HWL, counted and free
	// gap moves) and Security Refresh, where WriteTracked is diffed
	// against the reference's Device.Write over the same remap.
	deuceWays = []stepWay{
		bareWay,
		{"guard", func(p *Params) { p.MakeArray = guarded(bareDevice) }, false},
		{"nopager", func(p *Params) {
			p.MakeBackend = func(region string, pages, size int) (backend.Backend, error) {
				if region == RegionArray {
					return backend.NewCrashSim(backend.NewMem(pages, size)), nil
				}
				return backend.NewMem(pages, size), nil
			}
		}, false},
		leveledWay("start-gap", startGap, wear.HWL, false),
		leveledWay("start-gap-free", startGap, wear.HWL, true),
		leveledWay("start-gap-hashed", startGap, wear.HWLHashed, false),
		leveledWay("start-gap-hashed-free", startGap, wear.HWLHashed, true),
		leveledWay("security-refresh", securityRefresh, wear.HWLHashed, false),
	}
)

// checkSameDevice requires two arrays to hold the same cells of line and
// to report the same statistics, and with profiles set the same wear
// profiles.
func checkSameDevice(t *testing.T, what string, got, ref pcmdev.Array, line uint64, profiles bool) {
	t.Helper()
	gc, gm := got.Peek(line)
	rc, rm := ref.Peek(line)
	if !bitutil.Equal(gc, rc) || !bitutil.Equal(gm, rm) {
		t.Fatalf("%s: stored image differs from reference", what)
	}
	if g, r := got.Stats(), ref.Stats(); g != r {
		t.Fatalf("%s: stats %+v, reference %+v", what, g, r)
	}
	if !profiles {
		return
	}
	if !slices.Equal(got.PositionWrites(), ref.PositionWrites()) {
		t.Fatalf("%s: position profile differs from reference", what)
	}
	if !slices.Equal(got.LineWrites(), ref.LineWrites()) {
		t.Fatalf("%s: line profile differs from reference", what)
	}
}

// TestDeuceStepMatchesReference replays one write stream into each scheme
// and into the decrypt-then-step reference composed over Device.Write. It
// requires the same cells, metadata, counters, read-back, write cost (slot
// by slot) and statistics after every write, and the same wear profiles
// after every write up to 128-byte lines; at 4096 bytes, where a profile
// holds up to 37k counters, after every 32nd write and the last. KindDeuce
// runs over each of deuceWays, at line sizes with a partial 64-byte chunk
// (16, 48) and with many chunks (4096, not on the wear-leveled ways: that
// size runs one line, and a wear leveler needs two); the other two schemes
// run over the bare device at 64 and 128 bytes. 7-bit counters wrap within
// the stream.
func TestDeuceStepMatchesReference(t *testing.T) {
	for _, kind := range stepKinds {
		ways, sizes := []stepWay{bareWay}, []int{64, 128}
		switch kind {
		case KindDeuce:
			ways, sizes = deuceWays, []int{16, 48, 64, 128, 4096}
		case KindDeuceFNW:
			// 16- and 48-byte lines leave the two metadata fields
			// off byte boundaries at 4- and 8-byte words.
			sizes = []int{16, 48, 64, 128}
		}
		for _, way := range ways {
			for _, wb := range []int{1, 2, 4, 8} {
				for _, epoch := range []int{1, 2, 4, 32} {
					for _, lb := range sizes {
						if way.leveled && lb > 128 {
							continue // a leveled memory needs two lines
						}
						name := fmt.Sprintf("%s/%s/w%d/e%d/l%d", kind, way.name, wb, epoch, lb)
						// A 4096-byte line costs 32 times a 128-byte one
						// in the byte-loop reference: one line, 160
						// writes, still past the 7-bit counter's wrap.
						lines, writes := 2, 400
						if lb > 128 {
							lines, writes = 1, 160
						}
						p := Params{Lines: lines, LineBytes: lb, WordBytes: wb, EpochInterval: epoch, CounterBits: 7}
						if way.leveled {
							way.set(&p)
						}
						ref, err := newStepScheme(kind, p)
						if err != nil {
							t.Fatal(err)
						}
						way.set(&p)
						got, err := newStepScheme(kind, p)
						if err != nil {
							t.Fatal(err)
						}
						replayStep(t, name, got, ref, lines, writes, rand.New(rand.NewSource(int64(wb*1000+epoch*10+lb))))
					}
				}
			}
		}
	}
}

// replayStep drives got and ref with one mutating write stream and checks
// them against each other after every write.
func replayStep(t *testing.T, name string, got, ref stepScheme, lines, writes int, rng *rand.Rand) {
	t.Helper()
	lb := got.b.p.LineBytes
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
		if g.DataFlips != r.DataFlips || g.MetaFlips != r.MetaFlips || g.Slots != r.Slots || !slices.Equal(g.SlotFlips, r.SlotFlips) {
			t.Fatalf("%s write %d: result %+v, reference %+v", name, i, g, r)
		}
		what := fmt.Sprintf("%s write %d", name, i)
		checkSameDevice(t, what, got.b.dev, ref.b.dev, line, lb <= 128 || i%32 == 31 || i == writes-1)
		if gctr, rctr := got.b.ctrs.Get(line), ref.b.ctrs.Get(line); gctr != rctr {
			t.Fatalf("%s: counter %d, reference %d", what, gctr, rctr)
		}
		if !bitutil.Equal(ref.refRead(line), shadow[line]) {
			t.Fatalf("%s: reference read-back wrong", what)
		}
		got.ReadInto(line, readBuf)
		if !bitutil.Equal(readBuf, shadow[line]) {
			t.Fatalf("%s: ReadInto wrong", what)
		}
		// The same read on the reference keeps Stats().Reads level.
		ref.ReadInto(line, readBuf)
	}
	if got.b.ctrs.Overflows() == 0 {
		t.Fatalf("%s: counters never wrapped", name)
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
