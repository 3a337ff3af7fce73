package fnw_test

import (
	"fmt"

	"deuce/internal/fnw"
)

// Flip-N-Write stores either a word or its complement, whichever is closer
// to what the cells already hold. Writing the bitwise inverse of the
// stored line costs only the flip bits.
func Example() {
	codec := fnw.MustNew(2) // 2-byte words, the paper's granularity

	stored := make([]byte, 64) // all zeros
	flips := make([]byte, 4)
	allOnes := make([]byte, 64)
	for i := range allOnes {
		allOnes[i] = 0xff
	}

	cost := codec.CountFlips(stored, flips, allOnes)
	fmt.Printf("writing ~x over x: %d of 512 cells (plain DCW would program 512)\n", cost)

	newData, newFlips := make([]byte, 64), make([]byte, 4)
	codec.EncodeInto(newData, newFlips, stored, flips, allOnes)
	roundTrip := make([]byte, 64)
	codec.DecodeInto(roundTrip, newData, newFlips)
	fmt.Println(roundTrip[0] == 0xff)
	// Output:
	// writing ~x over x: 32 of 512 cells (plain DCW would program 512)
	// true
}
