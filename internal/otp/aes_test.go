package otp

import (
	"bytes"
	"crypto/aes"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"testing"
)

// paths returns the pad paths this machine can run: the crypto/aes loop
// always, and the AES-NI kernel where the CPU has it. Tests select one by
// setting Generator.kernel.
func paths() []bool {
	if haveAESNI {
		return []bool{false, true}
	}
	return []bool{false}
}

func newGen(t testing.TB, key []byte, kernel bool) *Generator {
	t.Helper()
	g, err := NewGenerator(key)
	if err != nil {
		t.Fatal(err)
	}
	g.kernel = kernel
	return g
}

// refPad is the pad definition spelled out over crypto/aes: block i of the
// n-byte pad is AES_key(lineAddr ‖ counter<<8 | i), little-endian halves.
func refPad(t testing.TB, key []byte, lineAddr, counter uint64, n int) []byte {
	t.Helper()
	c, err := aes.NewCipher(key)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]byte, n)
	var in [BlockSize]byte
	for i := 0; i < n/BlockSize; i++ {
		binary.LittleEndian.PutUint64(in[0:8], lineAddr)
		binary.LittleEndian.PutUint64(in[8:16], counter<<8|uint64(i))
		c.Encrypt(out[i*BlockSize:], in[:])
	}
	return out
}

func unhex(t testing.TB, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// FIPS-197 Appendix A.1: the expansion of the cipher key
// 2b7e1516 28aed2a6 abf71588 09cf4f3c, words w[0] through w[43].
func TestKeyScheduleFIPS197A1(t *testing.T) {
	want := "2b7e151628aed2a6abf7158809cf4f3c" +
		"a0fafe1788542cb123a339392a6c7605" +
		"f2c295f27a96b9435935807a7359f67f" +
		"3d80477d4716fe3e1e237e446d7a883b" +
		"ef44a541a8525b7fb671253bdb0bad00" +
		"d4d1c6f87c839d87caf2b8bc11f915bc" +
		"6d88a37a110b3efddbf98641ca0093fd" +
		"4e54f70e5f5fc9f384a64fb24ea6dc4f" +
		"ead27321b58dbad2312bf5607f8d292f" +
		"ac7766f319fadc2128d12941575c006e" +
		"d014f9a8c9ee2589e13f0cc8b6630ca6"
	var xk [roundKeyBytes]byte
	expandKey(&xk, unhex(t, "2b7e151628aed2a6abf7158809cf4f3c"))
	if got := hex.EncodeToString(xk[:]); got != want {
		t.Fatalf("key expansion\n got %s\nwant %s", got, want)
	}
}

// FIPS-197 Appendix C.1: AES-128 of 00112233…ff under key 000102…0f. The
// kernels take that block as the first tweak of every run; the other three
// blocks of a run (its block index stepped by one) must match crypto/aes.
func TestCipherFIPS197C1(t *testing.T) {
	if !haveAESNI {
		t.Skip("no AES-NI: pads come from crypto/aes")
	}
	key := unhex(t, "000102030405060708090a0b0c0d0e0f")
	pt := unhex(t, "00112233445566778899aabbccddeeff")
	want := unhex(t, "69c4e0d86a7b0430d8cdb78070b4c55a")
	ref, err := aes.NewCipher(key)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := binary.LittleEndian.Uint64(pt[:8]), binary.LittleEndian.Uint64(pt[8:])
	check := func(name string, run []byte) {
		t.Helper()
		if !bytes.Equal(run[:BlockSize], want) {
			t.Fatalf("%s: block 0 = %x, want %x", name, run[:BlockSize], want)
		}
		in, blk := make([]byte, BlockSize), make([]byte, BlockSize)
		for j := 1; j < runBlocks; j++ {
			binary.LittleEndian.PutUint64(in[0:8], lo)
			binary.LittleEndian.PutUint64(in[8:16], hi+uint64(j))
			ref.Encrypt(blk, in)
			if got := run[j*BlockSize : (j+1)*BlockSize]; !bytes.Equal(got, blk) {
				t.Fatalf("%s: block %d = %x, crypto/aes says %x", name, j, got, blk)
			}
		}
	}
	g := newGen(t, key, true)
	a, b := make([]byte, runBlocks*BlockSize), make([]byte, runBlocks*BlockSize)
	encrypt8(&g.xk, &a[0], &b[0], lo, hi, hi)
	check("encrypt8 first run", a)
	check("encrypt8 second run", b)
	encrypt4(&g.xk, &a[0], lo, hi)
	check("encrypt4", a)
}

// checkPads compares PadInto and PadPairInto for one (key, tuple, length)
// against the crypto/aes reference.
func checkPads(t *testing.T, g *Generator, key []byte, line, ctrA, ctrB uint64, n int) {
	t.Helper()
	wantA := refPad(t, key, line, ctrA, n)
	wantB := refPad(t, key, line, ctrB, n)
	got := make([]byte, n)
	g.PadInto(got, line, ctrA)
	if !bytes.Equal(got, wantA) {
		t.Fatalf("kernel=%t PadInto(line %#x, ctr %#x, %d B) differs from crypto/aes", g.kernel, line, ctrA, n)
	}
	pair := make([]byte, 2*n)
	g.PadPairInto(pair, line, ctrA, ctrB)
	if !bytes.Equal(pair[:n], wantA) || !bytes.Equal(pair[n:], wantB) {
		t.Fatalf("kernel=%t PadPairInto(line %#x, ctrs %#x/%#x, %d B) differs from crypto/aes", g.kernel, line, ctrA, ctrB, n)
	}
}

// The pad is exactly the AES of its tweak, on both paths: 200 random keys ×
// 50 random tuples × 5 lengths, then every line length from 16 to 4096
// bytes with counters near the 56-bit wrap of the tweak's counter field.
func TestPadMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for _, kernel := range paths() {
		key := make([]byte, 16)
		for k := 0; k < 200; k++ {
			rng.Read(key)
			g := newGen(t, key, kernel)
			for i := 0; i < 50; i++ {
				line, ctrA, ctrB := rng.Uint64(), rng.Uint64()>>8, rng.Uint64()>>8
				for _, n := range []int{16, 48, 64, 128, 272} {
					checkPads(t, g, key, line, ctrA, ctrB, n)
				}
			}
		}
		rng.Read(key)
		g := newGen(t, key, kernel)
		const wrap = uint64(1) << 56
		for n := BlockSize; n <= MaxPadBlocks*BlockSize; n += BlockSize {
			line := rng.Uint64()
			checkPads(t, g, key, line, wrap-1-uint64(n%3), wrap-2, n)
			checkPads(t, g, key, line, uint64(n), wrap+uint64(n), n)
		}
	}
}

// Pads longer than 256 blocks would wrap the tweak's 8-bit block index and
// reuse block 0's pad; they must be refused, and 256 blocks accepted.
func TestPadRefusesLongLines(t *testing.T) {
	g := gen(t)
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	max := MaxPadBlocks * BlockSize
	g.PadInto(make([]byte, max), 1, 1)
	g.PadPairInto(make([]byte, 2*max), 1, 1, 2)
	g.BlockPadInto(make([]byte, BlockSize), 1, 1, MaxPadBlocks-1)
	mustPanic("PadInto of 257 blocks", func() { g.PadInto(make([]byte, max+BlockSize), 1, 1) })
	mustPanic("PadPairInto of 2×257 blocks", func() { g.PadPairInto(make([]byte, 2*(max+BlockSize)), 1, 1, 2) })
	mustPanic("PadPairInto of an odd block count", func() { g.PadPairInto(make([]byte, 3*BlockSize), 1, 1, 2) })
	mustPanic("BlockPadInto of block 256", func() { g.BlockPadInto(make([]byte, BlockSize), 1, 1, MaxPadBlocks) })
	mustPanic("BlockPadInto of block -1", func() { g.BlockPadInto(make([]byte, BlockSize), 1, 1, -1) })
}

// FuzzPad diffs PadInto and PadPairInto on both paths against the crypto/aes
// reference for fuzzed keys, tuples and line lengths.
func FuzzPad(f *testing.F) {
	f.Add([]byte("0123456789abcdef"), uint64(0), uint64(0), uint64(1), uint16(4))
	f.Add([]byte("deuce-asplos2015"), ^uint64(0), uint64(1)<<56-1, uint64(1)<<56, uint16(256))
	f.Add(make([]byte, 16), uint64(7), uint64(32), uint64(31), uint16(7))
	f.Fuzz(func(t *testing.T, key []byte, line, ctrA, ctrB uint64, blocks uint16) {
		if len(key) != 16 {
			return
		}
		n := (int(blocks)%MaxPadBlocks + 1) * BlockSize
		for _, kernel := range paths() {
			checkPads(t, newGen(t, key, kernel), key, line, ctrA, ctrB, n)
		}
	})
}
