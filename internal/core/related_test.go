package core

import (
	"math/rand"
	"testing"

	"deuce/internal/bitutil"
)

// AddrPad's defining property: write cost identical to unencrypted DCW
// (the fixed pad preserves Hamming distance), §7.2.
func TestAddrPadCostEqualsDCW(t *testing.T) {
	ap, _ := NewAddrPad(Params{Lines: 8})
	dcw, _ := NewPlainDCW(Params{Lines: 8})
	rng := rand.New(rand.NewSource(1))
	data := make([]byte, 64)
	for i := 0; i < 300; i++ {
		line := uint64(rng.Intn(8))
		for n := 0; n < 1+rng.Intn(4); n++ {
			data[rng.Intn(64)] = byte(rng.Int())
		}
		fa := ap.Write(line, data).TotalFlips()
		fd := dcw.Write(line, data).TotalFlips()
		if fa != fd {
			t.Fatalf("write %d: AddrPad %d flips, DCW %d", i, fa, fd)
		}
	}
}

// AddrPad must still encrypt at rest (stolen-DIMM protection): stored
// cells differ from plaintext, and different lines holding the same value
// store different images.
func TestAddrPadAtRestProtection(t *testing.T) {
	s, _ := NewAddrPad(Params{Lines: 4})
	secret := make([]byte, 64)
	copy(secret, "top secret")
	s.Write(0, secret)
	s.Write(1, secret)
	img0, _ := s.dev.Peek(0)
	img1, _ := s.dev.Peek(1)
	if bitutil.Equal(img0, secret) {
		t.Error("stored image equals plaintext")
	}
	if bitutil.Equal(img0, img1) {
		t.Error("same value on two lines stored identically (dictionary attack)")
	}
	if !bitutil.Equal(read(s, 0), secret) {
		t.Error("round trip failed")
	}
}

// The documented weakness: rewriting the same value to the same line
// stores the same image (a bus snooper sees recurrences).
func TestAddrPadRecurrenceLeak(t *testing.T) {
	s, _ := NewAddrPad(Params{Lines: 2})
	v := make([]byte, 64)
	v[0] = 7
	s.Write(0, v)
	img1, _ := s.dev.Peek(0)
	w := bitutil.Clone(v)
	w[0] = 8
	s.Write(0, w)
	s.Write(0, v) // value recurs
	img2, _ := s.dev.Peek(0)
	if !bitutil.Equal(img1, img2) {
		t.Error("expected identical images for recurring value — the §7.2 trade-off")
	}
}

// i-NVMM: hot lines sit in the array in plain text; cooled lines do not.
func TestINVMMHotExposure(t *testing.T) {
	s, err := NewINVMM(Params{Lines: 16}) // capacity 2
	if err != nil {
		t.Fatal(err)
	}
	secret := make([]byte, 64)
	copy(secret, "plaintext in pcm")
	s.Write(0, secret)
	if !s.Exposed(0) {
		t.Fatal("freshly written line not hot")
	}
	img, _ := s.dev.Peek(0)
	if !bitutil.Equal(img, secret) {
		t.Error("hot line not stored in plain text (i-NVMM stores hot data raw)")
	}

	// Push two more lines through: line 0 cools and must encrypt.
	other := make([]byte, 64)
	s.Write(1, other)
	s.Write(2, other)
	if s.Exposed(0) {
		t.Fatal("line 0 still hot after LRU displacement")
	}
	img, _ = s.dev.Peek(0)
	if bitutil.Equal(img, secret) {
		t.Error("cooled line still in plain text")
	}
	if !bitutil.Equal(read(s, 0), secret) {
		t.Error("cooled line does not decrypt")
	}
	if s.HotLines() != 2 {
		t.Errorf("HotLines = %d, want capacity 2", s.HotLines())
	}
}

// PowerDown encrypts everything; afterwards no line is exposed and all
// data survives.
func TestINVMMPowerDown(t *testing.T) {
	s, _ := NewINVMM(Params{Lines: 16})
	rng := rand.New(rand.NewSource(2))
	shadow := map[uint64][]byte{}
	for i := 0; i < 50; i++ {
		line := uint64(rng.Intn(16))
		data := make([]byte, 64)
		rng.Read(data)
		shadow[line] = data
		s.Write(line, data)
	}
	flips, err := s.PowerDown()
	if err != nil {
		t.Fatal(err)
	}
	if flips == 0 {
		t.Error("power-down encryption programmed no cells")
	}
	if s.HotLines() != 0 {
		t.Errorf("HotLines after power down = %d", s.HotLines())
	}
	for line, want := range shadow {
		if s.Exposed(line) {
			t.Errorf("line %d exposed after power down", line)
		}
		if !bitutil.Equal(read(s, line), want) {
			t.Errorf("line %d lost data across power down", line)
		}
	}
}

// Hot-line writes must cost DCW (that is i-NVMM's entire selling point),
// while cooling costs a full re-encryption.
func TestINVMMWriteCosts(t *testing.T) {
	s, _ := NewINVMM(Params{Lines: 16})
	data := make([]byte, 64)
	s.Write(5, data)
	data[0] ^= 1
	res := s.Write(5, data) // hot, single-bit change
	if res.TotalFlips() != 1 {
		t.Errorf("hot single-bit write cost %d flips, want 1", res.TotalFlips())
	}
}
