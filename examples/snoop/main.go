// snoop walks through the paper's attack models (§2.1-§2.2): what an
// adversary observing the memory bus or stealing the DIMM learns under
// progressively stronger encryption, ending with what DEUCE itself leaks
// (only which words changed since the epoch — §4.3.5).
//
//	go run ./examples/snoop
package main

import (
	"bytes"
	"fmt"

	"deuce"
	"deuce/internal/bitutil"
	"deuce/internal/core"
	"deuce/internal/integrity"
	"deuce/internal/otp"
	"deuce/internal/pcmdev"
)

// observe writes the same secret to two lines and the same line twice, and
// reports what each adversary can distinguish.
func main() {
	secret := make([]byte, 64)
	copy(secret, "ATTACK AT DAWN. ")
	gen := otp.MustNewGenerator([]byte("0123456789abcdef"))

	fmt.Println("=== 1. No encryption: stolen DIMM reads everything ===")
	plain := deuce.MustNew(deuce.Options{Lines: 16, Scheme: deuce.PlainDCW})
	plain.Write(1, secret)
	fmt.Printf("  stored cells of line 1: %q\n\n", plain.Read(1)[:16])

	fmt.Println("=== 2. One global pad: dictionary attack ===")
	// Encrypting every line with the same pad (no address, no counter):
	// equal plaintexts give equal ciphertexts, so an adversary who ever
	// learns one line's content learns every matching line.
	padOnly := gen.Pad(0, 0, 64)
	ct1 := make([]byte, 64)
	ct2 := make([]byte, 64)
	bitutil.XOR(ct1, secret, padOnly)
	bitutil.XOR(ct2, secret, padOnly)
	fmt.Printf("  line A ciphertext == line B ciphertext: %v  (leak!)\n\n", bytes.Equal(ct1, ct2))

	fmt.Println("=== 3. Address-tweaked pad: stolen DIMM safe, bus snooping not ===")
	// Per-line pads stop the dictionary attack across lines...
	ctA := gen.Encrypt(1, 0, secret)
	ctB := gen.Encrypt(2, 0, secret)
	fmt.Printf("  same secret on two lines, ciphertexts equal: %v\n", bytes.Equal(ctA, ctB))
	// ...but rewriting a line with the same value produces the same
	// ciphertext, so a bus snooper sees *when a value recurs*.
	w1 := gen.Encrypt(1, 0, secret)
	w2 := gen.Encrypt(1, 0, secret)
	fmt.Printf("  same secret written twice to one line, ciphertexts equal: %v  (leak!)\n\n", bytes.Equal(w1, w2))

	fmt.Println("=== 4. Counter-mode (per-line counter): both attacks blocked ===")
	mem := deuce.MustNew(deuce.Options{Lines: 16, Scheme: deuce.EncrDCW})
	mem.Write(1, secret)
	info := mem.Write(1, secret) // identical rewrite
	fmt.Printf("  identical rewrite changed %d of 512 stored cells (unique pad every write)\n", info.BitFlips)
	fmt.Printf("  decrypts correctly: %v\n\n", bytes.Equal(mem.Read(1)[:16], secret[:16]))

	fmt.Println("=== 5. DEUCE: what is left to observe ===")
	d := deuce.MustNew(deuce.Options{Lines: 16, Scheme: deuce.DEUCE})
	d.Install(1, secret) // initial placement, modified bits clear
	before := snapshotCipher(d, 1)
	secret[0] = 'X' // change one word
	d.Write(1, secret)
	after := snapshotCipher(d, 1)
	changed := 0
	for w := 0; w < 32; w++ {
		if !bitutil.WordsEqual(before, after, 2, w) {
			changed++
		}
	}
	fmt.Printf("  one plaintext word changed; snooper sees %d of 32 ciphertext words move\n", changed)
	fmt.Println("  -> the adversary learns WHICH words changed this epoch, never their")
	fmt.Println("     contents: the same granularity of leakage as line addresses on the")
	fmt.Println("     bus (paper §4.3.5). Values stay protected by unique one-time pads.")
	fmt.Println()

	tamperDemo()
}

// tamperDemo shows the stronger adversary of the paper's footnote 1: one
// who can WRITE to the array, replaying an old line image to force pad
// reuse — and the Merkle-tree defence that catches it.
func tamperDemo() {
	fmt.Println("=== 6. Bus tampering (footnote 1): replay vs Merkle root ===")
	mem := core.MustNew(core.KindDeuce, core.Params{Lines: 16})
	dev := mem.Device().(*pcmdev.Device)
	guard := integrity.MustNewGuard(dev)

	// The adversary's handle is the DIMM itself: the stored pages.
	dimm := dev.Backend()
	line := make([]byte, 64)
	copy(line, "balance: $100")
	mem.Write(1, line)
	oldPage := make([]byte, dimm.PageSize())
	if err := dimm.ReadPage(1, oldPage); err != nil { // adversary records the bus
		panic(err)
	}

	copy(line, "balance: $0  ")
	mem.Write(1, line)

	// Adversary replays the old image straight into the array.
	if err := dimm.WritePage(1, oldPage); err != nil {
		panic(err)
	}
	caught := false
	guard.OnViolation = func(uint64) { caught = true }
	mem.ReadInto(1, line)
	fmt.Printf("  adversary replayed the old stored image; detected: %v\n", caught)
	fmt.Println("  -> the secure on-chip root binds every line+metadata image, so")
	fmt.Println("     counter rollback / replay is caught on the next read.")
}

// snapshotCipher captures the adversary's view of a line between two
// points in time: the cumulative per-word cell-program counts. Two
// snapshots differ in exactly the words whose stored ciphertext moved —
// which is all a bus snooper or DIMM thief can measure.
func snapshotCipher(m *deuce.Memory, line uint64) []byte {
	prof := m.WearProfile()
	img := make([]byte, 64)
	for w := 0; w < 32; w++ {
		var sum uint64
		for b := w * 16; b < (w+1)*16; b++ {
			sum += prof[b]
		}
		img[w*2] = byte(sum)
		img[w*2+1] = byte(sum >> 8)
	}
	return img
}
