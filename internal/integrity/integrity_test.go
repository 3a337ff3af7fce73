package integrity

import (
	"math/rand"
	"testing"
	"testing/quick"

	"deuce/internal/core"
	"deuce/internal/pcmdev"
	"deuce/internal/wear"
)

func TestNewTreeValidation(t *testing.T) {
	if _, err := NewTree(0); err == nil {
		t.Error("zero leaves accepted")
	}
	for _, n := range []int{1, 2, 3, 7, 8, 1000} {
		if _, err := NewTree(n); err != nil {
			t.Errorf("NewTree(%d): %v", n, err)
		}
	}
}

func TestUpdateChangesRoot(t *testing.T) {
	tr := MustNewTree(8)
	r0 := tr.Root()
	if err := tr.Update(3, []byte("counter=5")); err != nil {
		t.Fatal(err)
	}
	if tr.Root() == r0 {
		t.Error("root unchanged after leaf update")
	}
	// Updating back to the original payload restores the root.
	if err := tr.Update(3, nil); err != nil {
		t.Fatal(err)
	}
	if tr.Root() != r0 {
		t.Error("root not restored after reverting the leaf")
	}
}

func TestUpdateOutOfRange(t *testing.T) {
	tr := MustNewTree(4)
	if err := tr.Update(4, nil); err == nil {
		t.Error("out-of-range update accepted")
	}
	if _, err := tr.Prove(4); err == nil {
		t.Error("out-of-range proof accepted")
	}
}

func TestProveVerify(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8, 13} {
		tr := MustNewTree(n)
		payloads := make([][]byte, n)
		rng := rand.New(rand.NewSource(int64(n)))
		for i := range payloads {
			payloads[i] = make([]byte, 16)
			rng.Read(payloads[i])
			if err := tr.Update(uint64(i), payloads[i]); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < n; i++ {
			p, err := tr.Prove(uint64(i))
			if err != nil {
				t.Fatal(err)
			}
			if !Verify(tr.Root(), n, p, payloads[i]) {
				t.Errorf("n=%d: valid proof for leaf %d rejected", n, i)
			}
			// Wrong payload must fail.
			if Verify(tr.Root(), n, p, []byte("forged")) {
				t.Errorf("n=%d: forged payload for leaf %d accepted", n, i)
			}
		}
	}
}

// Rollback detection: a proof for an *old* payload must not verify against
// the updated root — the attack footnote 1 is about.
func TestRollbackDetected(t *testing.T) {
	tr := MustNewTree(8)
	old := []byte("ctr=1")
	tr.Update(2, old)
	oldProof, _ := tr.Prove(2)
	oldRoot := tr.Root()

	tr.Update(2, []byte("ctr=2"))
	if Verify(tr.Root(), 8, oldProof, old) {
		t.Error("stale counter verified against the new root (rollback!)")
	}
	// The old state still verifies against the old root, so the secure
	// register is exactly what makes rollback detectable.
	if !Verify(oldRoot, 8, oldProof, old) {
		t.Error("old state does not verify against its own root")
	}
}

// Property: two different payload vectors never produce the same root.
func TestRootBindsAllLeaves(t *testing.T) {
	f := func(a, b [4][]byte) bool {
		same := true
		for i := range a {
			if string(a[i]) != string(b[i]) {
				same = false
			}
		}
		ta, tb := MustNewTree(4), MustNewTree(4)
		for i := range a {
			ta.Update(uint64(i), a[i])
			tb.Update(uint64(i), b[i])
		}
		if same {
			return ta.Root() == tb.Root()
		}
		return ta.Root() != tb.Root()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Leaf/index binding: the same payload on two different leaves hashes
// differently (position is authenticated).
func TestLeafPositionBound(t *testing.T) {
	t1 := MustNewTree(2)
	t2 := MustNewTree(2)
	t1.Update(0, []byte("x"))
	t2.Update(1, []byte("x"))
	if t1.Root() == t2.Root() {
		t.Error("payload position not bound into the root")
	}
}

// tamper flips bit bit of stored byte off of row through the backend,
// behind the device and its guard: the adversary's handle on the DIMM.
func tamper(t testing.TB, dev *pcmdev.Device, row uint64, off, bit int) {
	t.Helper()
	be := dev.Backend()
	page := make([]byte, be.PageSize())
	if err := be.ReadPage(int(row), page); err != nil {
		t.Fatal(err)
	}
	page[off] ^= 1 << (bit & 7)
	if err := be.WritePage(int(row), page); err != nil {
		t.Fatal(err)
	}
}

func TestGuardPassThrough(t *testing.T) {
	dev := pcmdev.MustNew(pcmdev.Config{Lines: 8, MetaBits: 32})
	g := MustNewGuard(dev)
	data := make([]byte, 64)
	meta := make([]byte, 4)
	data[0] = 0xaa
	meta[0] = 0x01
	dev.Write(3, data, meta)
	d, m := make([]byte, 64), make([]byte, 4)
	dev.ReadInto(3, d, m)
	if d[0] != 0xaa || m[0] != 0x01 {
		t.Error("guard corrupted data path")
	}
	v, viol := g.VerifyStats()
	if v != 1 || viol != 0 {
		t.Errorf("verify stats = %d/%d", v, viol)
	}
	if st := dev.Stats(); st.Writes != 1 || st.Reads != 1 {
		t.Errorf("device stats %+v under a guard", st)
	}
	if _, err := NewGuard(dev); err == nil {
		t.Error("a second guard attached to one device")
	}
}

// The headline attack: tamper with the stored pages behind the guard's
// back (bus/DIMM tampering) and the next read must detect it.
func TestGuardDetectsTampering(t *testing.T) {
	dev := pcmdev.MustNew(pcmdev.Config{Lines: 8})
	g := MustNewGuard(dev)
	data := make([]byte, 64)
	data[0] = 1
	dev.Write(2, data, nil)

	tamper(t, dev, 2, 63, 7) // the adversary flips a stored cell

	var caught []uint64
	g.OnViolation = func(row uint64) { caught = append(caught, row) }
	dev.ReadInto(2, make([]byte, 64), nil)
	if len(caught) != 1 || caught[0] != 2 {
		t.Fatalf("tampering not detected: %v", caught)
	}
	_, viol := g.VerifyStats()
	if viol != 1 {
		t.Errorf("violations = %d", viol)
	}
	// Untampered lines still verify.
	dev.ReadInto(3, make([]byte, 64), nil)
	if len(caught) != 1 {
		t.Error("false positive on clean line")
	}
}

func TestGuardPanicsByDefault(t *testing.T) {
	dev := pcmdev.MustNew(pcmdev.Config{Lines: 2})
	MustNewGuard(dev)
	tamper(t, dev, 0, 5, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("tampered read did not panic")
		}
	}()
	dev.ReadInto(0, make([]byte, 64), nil)
}

// guarded is a Params.MakeArray for a bare device under a guard, which it
// stores in *g.
func guarded(g **Guard) func(pcmdev.Config) (pcmdev.Array, error) {
	return func(cfg pcmdev.Config) (pcmdev.Array, error) {
		dev, err := pcmdev.New(cfg)
		if err != nil {
			return nil, err
		}
		*g, err = NewGuard(dev)
		return dev, err
	}
}

// A counter-rollback attack against a full DEUCE memory built on a guarded
// array: resetting the stored line to an earlier image (replay) is caught
// on the next read.
func TestGuardedDeuceDetectsReplay(t *testing.T) {
	var g *Guard
	s, err := core.NewDeuce(core.Params{Lines: 4, MakeArray: guarded(&g)})
	if err != nil {
		t.Fatal(err)
	}
	be := s.Device().(*pcmdev.Device).Backend()
	old := make([]byte, be.PageSize())
	data := make([]byte, 64)
	data[0] = 1
	s.Write(0, data)
	if err := be.ReadPage(0, old); err != nil { // the adversary records the bus
		t.Fatal(err)
	}

	data[0] = 2
	s.Write(0, data)

	// Replay the earlier stored image (the classic pad-reuse setup).
	if err := be.WritePage(0, old); err != nil {
		t.Fatal(err)
	}
	var caught bool
	g.OnViolation = func(uint64) { caught = true }
	s.ReadInto(0, data)
	if !caught {
		t.Fatal("replayed line image not detected")
	}
}

// A guard on a wear-leveled device follows its moves: the row a Start-Gap
// gap move just filled verifies, tampering with it is caught on the next
// read of the line it now holds, and tampering with the row the next gap
// move reads is caught by that move.
func TestGuardFollowsGapMove(t *testing.T) {
	for _, free := range []bool{false, true} {
		sg := wear.MustNewStartGap(pcmdev.Config{Lines: 4, MetaBits: 32}, wear.StartGapConfig{Psi: 1, Mode: wear.HWL, FreeGapMoves: free})
		dev := sg.Device()
		g := MustNewGuard(dev)
		var caught []uint64
		g.OnViolation = func(row uint64) { caught = append(caught, row) }
		data, meta := make([]byte, 64), make([]byte, 4)
		for line := uint64(0); line < 4; line++ {
			data[0], meta[0] = byte(line+1), byte(line+1)
			dev.Write(line, data, meta)
		}
		// Four writes moved the gap from row 4 to row 0: its last move
		// copied line 0 from row 0 into row 1.
		if sg.GapPosition() != 0 {
			t.Fatalf("gap at row %d", sg.GapPosition())
		}
		for line := uint64(0); line < 4; line++ {
			dev.ReadInto(line, data, meta)
		}
		if len(caught) != 0 {
			t.Fatalf("free=%v: moved lines fail verification at rows %v", free, caught)
		}
		tamper(t, dev, 1, 64, 3)
		dev.ReadInto(0, data, meta)
		if len(caught) != 1 || caught[0] != 1 {
			t.Fatalf("free=%v: tampering with the filled row caught at rows %v", free, caught)
		}
		// The next gap move copies line 3 from row 4 into row 0: a tamper
		// of row 4 is caught by the move, which a write of line 0 takes.
		caught = nil
		tamper(t, dev, 4, 5, 0)
		data[1]++ // rewrites row 1's tampered cells
		dev.Write(0, data, meta)
		if len(caught) != 1 || caught[0] != 4 {
			t.Fatalf("free=%v: tampering with the row a gap move reads caught at rows %v", free, caught)
		}
		for line := uint64(0); line < 4; line++ {
			dev.ReadInto(line, data, meta)
		}
		if len(caught) != 1 {
			t.Fatalf("free=%v: rows %v failed verification after the move", free, caught)
		}
	}
}

func BenchmarkTreeUpdate(b *testing.B) {
	tr := MustNewTree(1 << 16)
	payload := make([]byte, 68)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		payload[0] = byte(i)
		tr.Update(uint64(i%(1<<16)), payload)
	}
}
