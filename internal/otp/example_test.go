package otp_test

import (
	"fmt"

	"deuce/internal/otp"
)

// Counter-mode encryption in three lines: a pad derived from (key, line
// address, write counter) XORed over the data. Decryption regenerates the
// same pad from the stored counter.
func Example() {
	gen := otp.MustNewGenerator([]byte("0123456789abcdef"))

	const lineAddr, counter = 42, 7
	plaintext := []byte("sixteen byte msg")
	ciphertext := gen.Encrypt(lineAddr, counter, plaintext)
	recovered := make([]byte, len(ciphertext))
	gen.DecryptInto(recovered, lineAddr, counter, ciphertext)

	fmt.Printf("%s\n", recovered)
	fmt.Println(string(ciphertext) == string(plaintext))
	// Output:
	// sixteen byte msg
	// false
}

// Each (address, counter) pair yields an independent pad — the uniqueness
// counter-mode security rests on.
func ExampleGenerator_Pad() {
	gen := otp.MustNewGenerator([]byte("0123456789abcdef"))
	a := gen.Pad(1, 1, 16)
	b := gen.Pad(1, 2, 16)
	fmt.Println(string(a) == string(b))
	// Output: false
}
