package core

import (
	"testing"

	"deuce/internal/bitutil"
)

// FuzzSchemeConsistency replays a fuzz-derived write sequence into every
// scheme simultaneously: all schemes must agree with a shadow model (and
// therefore with each other) at every step. This is the strongest
// cross-implementation differential oracle in the suite.
func FuzzSchemeConsistency(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, int64(1))
	f.Add(make([]byte, 64), int64(2))
	f.Fuzz(func(t *testing.T, script []byte, seed int64) {
		if len(script) == 0 {
			return
		}
		const lines = 4
		var schemes []Scheme
		for _, k := range allKinds {
			schemes = append(schemes, MustNew(k, Params{Lines: lines, EpochInterval: 4, Key: []byte("0123456789abcdef")}))
		}
		shadow := make([][]byte, lines)
		for i := range shadow {
			shadow[i] = make([]byte, 64)
		}

		// Interpret the script as (line, offset, value) triples.
		for i := 0; i+2 < len(script); i += 3 {
			line := uint64(script[i]) % lines
			off := int(script[i+1]) % 64
			shadow[line][off] = script[i+2]
			for _, s := range schemes {
				s.Write(line, shadow[line])
			}
			// Spot-verify one scheme per step (all every 8 steps).
			probe := schemes[i/3%len(schemes)]
			if !bitutil.Equal(read(probe, line), shadow[line]) {
				t.Fatalf("%s diverged at step %d", probe.Name(), i/3)
			}
		}
		for l := uint64(0); l < lines; l++ {
			for _, s := range schemes {
				if !bitutil.Equal(read(s, l), shadow[l]) {
					t.Fatalf("%s: final state mismatch on line %d", s.Name(), l)
				}
			}
		}
	})
}
