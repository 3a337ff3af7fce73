package wear

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"

	"deuce/internal/bitutil"
	"deuce/internal/pcmdev"
)

// rotateImage is the per-bit reference for the twin's shifter: it
// rotates a line's combined data+metadata bit image by k bits.
func rotateImage(cfg pcmdev.Config, totalBits int, data, meta []byte, k int) (rdata, rmeta []byte) {
	if k == 0 {
		return bitutil.Clone(data), bitutil.Clone(meta)
	}
	// Pack data and the first MetaBits of meta into one bit image.
	img := make([]byte, (totalBits+7)/8)
	copy(img, data)
	for i := 0; i < cfg.MetaBits; i++ {
		bitutil.SetBit(img, cfg.LineBits()+i, bitutil.GetBit(meta, i))
	}
	// The packed image may have padding bits past totalBits; rotate only
	// the live region by working at exact bit length.
	rot := rotateBits(img, totalBits, k)
	// Unpack.
	rdata = make([]byte, cfg.LineBytes)
	copy(rdata, rot[:cfg.LineBytes])
	rmeta = make([]byte, (cfg.MetaBits+7)/8)
	for i := 0; i < cfg.MetaBits; i++ {
		bitutil.SetBit(rmeta, i, bitutil.GetBit(rot, cfg.LineBits()+i))
	}
	return rdata, rmeta
}

// rotateBits rotates the first n bits of img left by k, leaving padding zero.
func rotateBits(img []byte, n, k int) []byte {
	out := make([]byte, len(img))
	k = ((k % n) + n) % n
	for i := 0; i < n; i++ {
		if bitutil.GetBit(img, i) {
			bitutil.SetBit(out, (i+k)%n, true)
		}
	}
	return out
}

// wordsToBytes returns the little-endian byte image of w.
func wordsToBytes(w []uint64) []byte {
	b := make([]byte, 8*len(w))
	for i, x := range w {
		binary.LittleEndian.PutUint64(b[8*i:], x)
	}
	return b
}

// FuzzRotate checks the word-wide shifter kernel against the per-bit
// reference on every width from 1 to 1100 bits and every rotation in
// [-n, 2n], from images whose padding bits past n are dirty, and checks
// that rotating back by -k restores the image.
func FuzzRotate(f *testing.F) {
	for _, seed := range [][3]int64{{0, 0, 1}, {63, 1, 2}, {64, -1, 3}, {543, 200, 4}, {575, 575, 5}, {1099, -7, 6}} {
		f.Add(uint16(seed[0]), int32(seed[1]), seed[2])
	}
	f.Fuzz(func(t *testing.T, nIn uint16, kIn int32, seed int64) {
		n := 1 + int(nIn)%1100
		k := -n + int(uint32(kIn)%uint32(3*n+1))
		words := (n + 63) / 64
		rng := rand.New(rand.NewSource(seed))
		src := make([]uint64, words)
		for i := range src {
			src[i] = rng.Uint64()
		}
		want := rotateBits(wordsToBytes(src), n, k)

		dst := make([]uint64, words)
		bitutil.RotateWords(dst, src, n, k)
		if got := wordsToBytes(dst); !bytes.Equal(got, want) {
			t.Fatalf("n=%d k=%d: RotateWords\n got %x\nwant %x", n, k, got, want)
		}
		// src now has its padding cleared: the round trip must restore it.
		back := make([]uint64, words)
		bitutil.RotateWords(back, dst, n, -k)
		if !bytes.Equal(wordsToBytes(back), wordsToBytes(src)) {
			t.Fatalf("n=%d k=%d: rotate(-k)∘rotate(k) is not the identity", n, k)
		}
	})
}

// TestShiftMatchesRotateImage diffs the twin's shifter, out of place and
// in place, against the per-bit reference on every metadata width the
// schemes use around the word boundaries, with dirty metadata padding.
func TestShiftMatchesRotateImage(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, lineBytes := range []int{64, 128} {
		for _, metaBits := range []int{0, 1, 7, 32, 33, 64, 65} {
			s, err := newTwinStartGap(pcmdev.Config{Lines: 2, LineBytes: lineBytes, MetaBits: metaBits}, StartGapConfig{})
			if err != nil {
				t.Fatal(err)
			}
			cfg, n := s.inner.Config(), s.totalBits
			for _, k := range []int{0, 1, -1, 63, 64, -65, n - 1, n, n + 3, 2 * n, rng.Intn(n), -rng.Intn(n)} {
				data := make([]byte, lineBytes)
				meta := make([]byte, (metaBits+7)/8)
				rng.Read(data)
				rng.Read(meta)
				wantD, wantM := rotateImage(cfg, n, data, meta, k)

				gotD, gotM := make([]byte, len(data)), make([]byte, len(meta))
				s.shift(gotD, gotM, data, meta, k)
				if !bytes.Equal(gotD, wantD) || !bytes.Equal(gotM, wantM) {
					t.Fatalf("LineBytes %d MetaBits %d k=%d: shift differs from rotateImage", lineBytes, metaBits, k)
				}
				s.shift(data, meta, data, meta, k)
				if !bytes.Equal(data, wantD) || !bytes.Equal(meta, wantM) {
					t.Fatalf("LineBytes %d MetaBits %d k=%d: in-place shift differs from rotateImage", lineBytes, metaBits, k)
				}
			}
		}
	}
}
