package otp

// Regression tests for the Generator concurrency contract and the
// allocation-free ...Into hot paths. A Generator owns unguarded scratch
// (the kernel's tweak block, EncryptInto's pad, the pad counter), so the
// contract is one Generator per goroutine; TestOneGeneratorPerGoroutine
// pins the supported usage down under -race (sharing one Generator across
// goroutines would fail -race, which is exactly the point of the contract).

import (
	"bytes"
	"sync"
	"testing"
)

// TestOneGeneratorPerGoroutine exercises the supported concurrency pattern —
// a fresh Generator per goroutine, same key — under the race detector, and
// checks that all goroutines agree on the pads (the key material is
// read-only after expansion).
func TestOneGeneratorPerGoroutine(t *testing.T) {
	const workers = 8
	const pads = 200
	results := make([][]byte, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			g := MustNewGenerator(testKey)
			sum := make([]byte, 128)
			buf := make([]byte, 128)
			for i := 0; i < pads; i++ {
				g.PadInto(buf[:64], uint64(i%32), uint64(i%7))
				g.PadPairInto(buf, uint64(i%32), uint64(i%7), uint64(i%5))
				for j := range sum {
					sum[j] ^= buf[j]
				}
				g.EncryptInto(buf, uint64(i), 1, buf)
			}
			results[w] = sum
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		if !bytes.Equal(results[w], results[0]) {
			t.Fatalf("goroutine %d produced different pads than goroutine 0", w)
		}
	}
}

func TestPadIntoMatchesPad(t *testing.T) {
	g := gen(t)
	ref := gen(t)
	buf := make([]byte, 64)
	for addr := uint64(0); addr < 8; addr++ {
		for ctr := uint64(0); ctr < 8; ctr++ {
			g.PadInto(buf, addr, ctr)
			if !bytes.Equal(buf, ref.Pad(addr, ctr, 64)) {
				t.Fatalf("PadInto(%d,%d) disagrees with Pad", addr, ctr)
			}
		}
	}
}

func TestBlockPadIntoMatchesBlockPad(t *testing.T) {
	g := gen(t)
	buf := make([]byte, BlockSize)
	for blk := 0; blk < 4; blk++ {
		g.BlockPadInto(buf, 9, 3, blk)
		if !bytes.Equal(buf, g.BlockPad(9, 3, blk)) {
			t.Fatalf("BlockPadInto(%d) disagrees with BlockPad", blk)
		}
	}
}

func TestEncryptIntoRoundTripAliased(t *testing.T) {
	g := gen(t)
	plain := []byte("the quick brown fox jumps over the lazy dog, twice over padding!")
	data := append([]byte(nil), plain...)
	g.EncryptInto(data, 5, 6, data) // encrypt in place
	if bytes.Equal(data, plain) {
		t.Fatal("in-place encryption left plaintext unchanged")
	}
	g.DecryptInto(data, 5, 6, data) // decrypt in place
	if !bytes.Equal(data, plain) {
		t.Fatalf("aliased round trip corrupted data: %q", data)
	}
}

// The pad paths must be allocation-free in steady state, on the kernel and
// on the crypto/aes loop — this is what makes zero-alloc scheme writes
// possible.
func TestIntoPathsDoNotAllocate(t *testing.T) {
	for _, kernel := range paths() {
		g := gen(t)
		g.kernel = kernel
		buf := make([]byte, 128)
		g.EncryptInto(buf[:64], 1, 2, buf[:64]) // size the scratch buffer

		allocs := map[string]func(){
			"PadInto":      func() { g.PadInto(buf[:64], 1, 2) },
			"PadInto/128":  func() { g.PadInto(buf, 1, 2) },
			"PadPairInto":  func() { g.PadPairInto(buf, 1, 2, 0) },
			"EncryptInto":  func() { g.EncryptInto(buf[:64], 1, 2, buf[:64]) },
			"BlockPadInto": func() { g.BlockPadInto(buf[:BlockSize], 1, 2, 3) },
		}
		for name, f := range allocs {
			if n := testing.AllocsPerRun(100, f); n != 0 {
				t.Errorf("kernel=%t: %s allocates %.1f times per call, want 0", kernel, name, n)
			}
		}
	}
}

// Requesting a shorter pad after a longer one for the same tuple (and vice
// versa) through one generator must stay correct: the short pad is the
// prefix of the long one, and no scratch sized by an earlier request may
// leak into a later one.
func TestCacheMixedLengths(t *testing.T) {
	for _, kernel := range paths() {
		g := newGen(t, testKey, kernel)
		long := make([]byte, 64)
		short := make([]byte, 16)
		g.PadInto(long, 3, 3)
		g.PadInto(short, 3, 3)
		if !bytes.Equal(short, refPad(t, testKey, 3, 3, 16)) || !bytes.Equal(short, long[:16]) {
			t.Fatalf("kernel=%t: short pad after long pad is wrong", kernel)
		}
		g.PadInto(short, 4, 4)
		g.PadInto(long, 4, 4)
		if !bytes.Equal(long, refPad(t, testKey, 4, 4, 64)) {
			t.Fatalf("kernel=%t: long pad after short pad is wrong", kernel)
		}
	}
}
