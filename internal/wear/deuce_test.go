package wear_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"deuce/internal/core"
	"deuce/internal/pcmdev"
	"deuce/internal/wear"
)

// TestDeuceMatchesTwin runs DEUCE over a wear-leveled device, where its
// Write is the one-pass WriteTracked, and over the rotated-storage twin,
// whose reference WriteTracked copies the line out, steps it lane by lane
// and writes it back through the shifter. After every write it requires the same
// write result (slot by slot), statistics, wear profiles and read-back,
// for Start-Gap with HWL and hashed HWL, counted and free gap moves, and
// for Security Refresh.
func TestDeuceMatchesTwin(t *testing.T) {
	for _, leg := range []struct {
		sr   bool
		mode wear.Mode
		free bool
	}{
		{false, wear.HWL, false},
		{false, wear.HWL, true},
		{false, wear.HWLHashed, false},
		{false, wear.HWLHashed, true},
		{true, wear.HWLHashed, false},
	} {
		name := fmt.Sprintf("sr=%v/%s/free=%v", leg.sr, leg.mode, leg.free)
		t.Run(name, func(t *testing.T) {
			wcfg := wear.StartGapConfig{Psi: 3, Mode: leg.mode, FreeGapMoves: leg.free}
			leveled := func(c pcmdev.Config) (pcmdev.Array, error) {
				if leg.sr {
					s, err := wear.NewSecurityRefresh(c, wcfg, 1)
					if err != nil {
						return nil, err
					}
					return s.Device(), nil
				}
				s, err := wear.NewStartGap(c, wcfg)
				if err != nil {
					return nil, err
				}
				return s.Device(), nil
			}
			twin := func(c pcmdev.Config) (pcmdev.Array, error) { return wear.NewTwin(c, wcfg, leg.sr) }
			const lines = 8
			p := core.Params{Lines: lines, EpochInterval: 4}
			p.MakeArray = leveled
			got := core.MustNew(core.KindDeuce, p)
			p.MakeArray = twin
			ref := core.MustNew(core.KindDeuce, p)
			if _, ok := got.Device().(*pcmdev.Device); !ok {
				t.Fatalf("wear-leveled memory is a %T, not a device", got.Device())
			}

			rng := rand.New(rand.NewSource(9))
			shadow := make([][]byte, lines)
			for i := range shadow {
				shadow[i] = make([]byte, 64)
			}
			gb, rb := make([]byte, 64), make([]byte, 64)
			for i := 0; i < 600; i++ {
				line := uint64(rng.Intn(lines))
				for n := rng.Intn(4); n > 0; n-- {
					shadow[line][rng.Intn(64)] = byte(rng.Int())
				}
				g, r := got.Write(line, shadow[line]), ref.Write(line, shadow[line])
				if g.DataFlips != r.DataFlips || g.MetaFlips != r.MetaFlips || g.Slots != r.Slots || !slices.Equal(g.SlotFlips, r.SlotFlips) {
					t.Fatalf("write %d: result %+v, twin %+v", i, g, r)
				}
				gd, rd := got.Device(), ref.Device()
				if gs, rs := gd.Stats(), rd.Stats(); gs != rs {
					t.Fatalf("write %d: stats %+v, twin %+v", i, gs, rs)
				}
				if !slices.Equal(gd.PositionWrites(), rd.PositionWrites()) || !slices.Equal(gd.LineWrites(), rd.LineWrites()) {
					t.Fatalf("write %d: wear profiles differ from the twin", i)
				}
				got.ReadInto(line, gb)
				ref.ReadInto(line, rb)
				if !bytes.Equal(gb, shadow[line]) || !bytes.Equal(rb, shadow[line]) {
					t.Fatalf("write %d: read-back differs from the plaintext written", i)
				}
			}
		})
	}
}
