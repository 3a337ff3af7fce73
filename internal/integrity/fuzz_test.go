package integrity

import (
	"bytes"
	"slices"
	"testing"

	"deuce/internal/core"
	"deuce/internal/pcmdev"
	"deuce/internal/wear"
)

// FuzzVerifyRejectsForgeries mutates valid proofs and payloads: any
// modification must make verification fail, and no input may panic the
// verifier.
func FuzzVerifyRejectsForgeries(f *testing.F) {
	f.Add(uint64(0), []byte("payload"), 0, byte(0))
	f.Add(uint64(5), []byte(""), 3, byte(7))
	f.Fuzz(func(t *testing.T, leaf uint64, payload []byte, flipAt int, flipBit byte) {
		const leaves = 8
		tr := MustNewTree(leaves)
		leaf %= leaves
		if err := tr.Update(leaf, payload); err != nil {
			t.Fatal(err)
		}
		proof, err := tr.Prove(leaf)
		if err != nil {
			t.Fatal(err)
		}
		root := tr.Root()
		if !Verify(root, leaves, proof, payload) {
			t.Fatal("valid proof rejected")
		}

		// Forge one bit somewhere in the proof path.
		forged := proof
		forged.Siblings = append([]Digest(nil), proof.Siblings...)
		i := ((flipAt % len(forged.Siblings)) + len(forged.Siblings)) % len(forged.Siblings)
		forged.Siblings[i][int(flipBit)%HashSize] ^= 1 << (flipBit % 8)
		if Verify(root, leaves, forged, payload) {
			t.Fatal("forged sibling accepted")
		}

		// Forge the payload.
		fp := append([]byte(nil), payload...)
		fp = append(fp, 0x01)
		if Verify(root, leaves, proof, fp) {
			t.Fatal("forged payload accepted")
		}

		// Wrong leaf index.
		wrong := proof
		wrong.Leaf = (leaf + 1) % leaves
		if Verify(root, leaves, wrong, payload) {
			t.Fatal("relocated proof accepted")
		}
	})
}

// tamperLegs are the devices FuzzGuardTamper guards: bare, and the two
// wear levelers at Psi 1 (a step every write), counted and free.
var tamperLegs = []func(pcmdev.Config) (*pcmdev.Device, error){
	pcmdev.New,
	func(c pcmdev.Config) (*pcmdev.Device, error) {
		s, err := wear.NewStartGap(c, wear.StartGapConfig{Psi: 1, Mode: wear.HWL})
		if err != nil {
			return nil, err
		}
		return s.Device(), nil
	},
	func(c pcmdev.Config) (*pcmdev.Device, error) {
		s, err := wear.NewStartGap(c, wear.StartGapConfig{Psi: 1, Mode: wear.HWL, FreeGapMoves: true})
		if err != nil {
			return nil, err
		}
		return s.Device(), nil
	},
	func(c pcmdev.Config) (*pcmdev.Device, error) {
		s, err := wear.NewSecurityRefresh(c, wear.StartGapConfig{Psi: 1, Mode: wear.HWL}, 1)
		if err != nil {
			return nil, err
		}
		return s.Device(), nil
	},
	func(c pcmdev.Config) (*pcmdev.Device, error) {
		s, err := wear.NewSecurityRefresh(c, wear.StartGapConfig{Psi: 1, Mode: wear.HWL, FreeGapMoves: true}, 1)
		if err != nil {
			return nil, err
		}
		return s.Device(), nil
	},
}

// rowsOf returns the physical rows whose backend page holds line's image:
// its row, and on Start-Gap possibly the gap, which keeps the cells of the
// line last moved out of it.
func rowsOf(t *testing.T, dev *pcmdev.Device, line uint64) []uint64 {
	t.Helper()
	cfg := dev.Config()
	data, meta := make([]byte, cfg.LineBytes), make([]byte, (cfg.MetaBits+7)/8)
	dev.PeekInto(line, data, meta)
	be := dev.Backend()
	page := make([]byte, be.PageSize())
	var rows []uint64
	for row := 0; row < be.Pages(); row++ {
		if err := be.ReadPage(row, page); err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(page[:len(data)], data) && bytes.Equal(page[len(data):len(data)+len(meta)], meta) {
			rows = append(rows, uint64(row))
		}
	}
	if len(rows) == 0 || len(rows) > 2 {
		t.Fatalf("line %d's image is stored at rows %v", line, rows)
	}
	return rows
}

// FuzzGuardTamper runs a fuzzed scheme on a guarded device, bare or wear
// leveled (leg), through a fuzzed sequence of writes and reads (each op
// byte: bit 7 reads, the low bits pick the line and the edit), then flips
// one stored bit of one line through the backend, in every row holding
// its image, runs the ops again on every other line and reads every line,
// the tampered one last. No op before the flip may fail verification;
// after it, exactly one check must, at a tampered row: the tampered line's
// read, or a wear leveler's move of it. A stale copy in Start-Gap's gap is
// never checked.
func FuzzGuardTamper(f *testing.F) {
	f.Add(uint8(4), uint8(0), []byte{1, 2, 0x83, 200, 17}, uint8(3), uint16(70))
	f.Add(uint8(0), uint8(0), []byte{}, uint8(0), uint16(0))
	f.Add(uint8(7), uint8(0), []byte{9, 9, 9, 0x89, 12, 44}, uint8(1), uint16(540))
	f.Add(uint8(4), uint8(1), []byte{1, 2, 0x83, 200, 17, 5, 6}, uint8(6), uint16(70))
	f.Add(uint8(2), uint8(2), []byte{3, 4, 5, 6, 7}, uint8(4), uint16(9))
	f.Add(uint8(4), uint8(3), []byte{1, 2, 0x83, 200, 17, 5, 6}, uint8(2), uint16(300))
	f.Add(uint8(9), uint8(4), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9}, uint8(5), uint16(33))
	f.Add(uint8(4), uint8(1), []byte("00000"), uint8(3), uint16(70))
	f.Add(uint8(2), uint8(2), []byte("1111"), uint8(0), uint16(9))
	f.Fuzz(func(t *testing.T, kind, leg uint8, ops []byte, victim uint8, at uint16) {
		const lines = 8
		kinds := core.Kinds()
		mk := tamperLegs[int(leg)%len(tamperLegs)]
		var g *Guard
		s, err := core.New(kinds[int(kind)%len(kinds)], core.Params{Lines: lines, EpochInterval: 4,
			MakeArray: func(c pcmdev.Config) (pcmdev.Array, error) {
				dev, err := mk(c)
				if err != nil {
					return nil, err
				}
				g, err = NewGuard(dev)
				return dev, err
			}})
		if err != nil {
			t.Fatal(err)
		}
		var caught []uint64
		g.OnViolation = func(row uint64) { caught = append(caught, row) }
		buf := make([]byte, 64)
		if len(ops) > 512 {
			ops = ops[:512]
		}
		// run applies ops to every line but skip; buf[0] names the line
		// written, so no two lines store one image.
		run := func(skip uint64) {
			for i, op := range ops {
				line := uint64(op % lines)
				if line == skip {
					continue
				}
				if op&0x80 != 0 {
					s.ReadInto(line, buf)
					continue
				}
				buf[(i*7+int(op))%len(buf)] ^= op | 1
				buf[0] = byte(line)
				s.Write(line, buf)
			}
		}
		for line := uint64(0); line < lines; line++ {
			buf[0] = byte(line)
			s.Write(line, buf)
		}
		run(lines)
		if len(caught) != 0 {
			t.Fatalf("untampered memory failed verification at rows %v", caught)
		}

		v := uint64(victim % lines)
		dev := s.Device().(*pcmdev.Device)
		rows := rowsOf(t, dev, v)
		for _, row := range rows {
			tamper(t, dev, row, int(at/8)%dev.Config().PageBytes(), int(at))
		}
		run(v)
		for line := uint64(1); line <= lines; line++ {
			s.ReadInto((v+line)%lines, buf)
		}
		if len(caught) != 1 || !slices.Contains(rows, caught[0]) {
			t.Fatalf("tampering with rows %v (line %d) caught at rows %v", rows, v, caught)
		}
	})
}
