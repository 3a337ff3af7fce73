package wear_test

import (
	"fmt"

	"deuce/internal/pcmdev"
	"deuce/internal/wear"
)

// Start-Gap with Horizontal Wear Leveling builds a drop-in memory, a
// remapped pcmdev.Device: writes land remapped and their flips
// bit-rotated, reads see the logical line, and a hot bit's wear spreads
// across the whole line over time.
func Example() {
	sg := wear.MustNewStartGap(
		pcmdev.Config{Lines: 8},
		wear.StartGapConfig{Psi: 1, Mode: wear.HWL},
	)
	dev := sg.Device()

	data := make([]byte, 64)
	const writes = 2000 // enough rounds for the rotation to sweep the line
	for i := 0; i < writes; i++ {
		data[0] ^= 0xff // hammer the first byte
		dev.Write(3, data, nil)
	}
	got := make([]byte, 64)
	dev.ReadInto(3, got, nil)
	fmt.Println("data survives remap+rotation:", got[0] == data[0])

	profile := wear.MustAnalyze(dev.PositionWrites(), writes)
	fmt.Println("hot byte smeared over many positions:", profile.Skew() < 10)
	// Output:
	// data survives remap+rotation: true
	// hot byte smeared over many positions: true
}

// Lifetime analysis from a position profile: the hottest cell sets the
// lifetime; HWL's goal is MaxRate -> AvgRate.
func ExampleProfile_RelativeLifetime() {
	// Encrypted baseline: uniform 50% program rate.
	base := wear.MustAnalyze([]uint64{50, 50, 50, 50}, 100)
	// A scheme with half the flips, perfectly leveled.
	leveled := wear.MustAnalyze([]uint64{25, 25, 25, 25}, 100)
	fmt.Printf("%.1fx\n", leveled.RelativeLifetime(base))
	// Output: 2.0x
}
