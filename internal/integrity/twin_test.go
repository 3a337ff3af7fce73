package integrity

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"deuce/internal/core"
	"deuce/internal/pcmdev"
)

// This file keeps the guard as it was before it became a device observer:
// a pcmdev.Array wrapper that verifies what its reads copy out and records
// what its stores leave behind. TestGuardMatchesTwin diffs the observer
// against it. It is kept as it was, plus WriteTracked, which the wrapper
// must take itself now that Array has it: verify, write, record, as the
// wrapper's PeekInto and Write did when DEUCE stepped the line outside.

// twinGuard wraps a PCM array with Merkle authentication of every line's
// stored image (data cells plus metadata cells). The root digest models
// the processor-resident secure register of Bonsai-Merkle-style designs:
// an adversary with full control of the array contents (bus tampering,
// §2.4 footnote 1) cannot roll a line back to an earlier image — including
// its DEUCE modified bits — without the next read failing verification.
//
// twinGuard implements pcmdev.Array, so any scheme in internal/core can be
// constructed on top of it via core.Params.MakeArray. It overrides the
// stores and reads and takes the rest from the embedded array.
type twinGuard struct {
	pcmdev.Array
	tree *Tree

	// OnViolation is invoked with the offending line when a read fails
	// authentication. Nil means panic (a memory controller would raise
	// a machine check; simulations usually want the loud default).
	OnViolation func(line uint64)

	verified   uint64
	violations uint64

	// payload holds a line's image as its leaf hashes it: the data
	// bytes, then the metadata bytes, which data and meta alias.
	payload, data, meta []byte
}

// newTwinGuard wraps an array. The tree is initialized to the array's current
// (all-zero) contents.
func newTwinGuard(inner pcmdev.Array) (*twinGuard, error) {
	if inner == nil {
		return nil, fmt.Errorf("integrity: nil inner array")
	}
	cfg := inner.Config()
	tree, err := NewTree(cfg.Lines)
	if err != nil {
		return nil, err
	}
	g := &twinGuard{Array: inner, tree: tree, payload: make([]byte, cfg.PageBytes())}
	g.data, g.meta = g.payload[:cfg.LineBytes], g.payload[cfg.LineBytes:]
	// Bring leaves in sync with the (zeroed) array so fresh reads verify.
	for line := 0; line < cfg.Lines; line++ {
		g.record(uint64(line))
	}
	return g, nil
}

// mustNewTwinGuard is newTwinGuard for arrays known to be valid.
func mustNewTwinGuard(inner pcmdev.Array) *twinGuard {
	g, err := newTwinGuard(inner)
	if err != nil {
		panic(err)
	}
	return g
}

// Root returns the current secure-root digest.
func (g *twinGuard) Root() Digest { return g.tree.Root() }

// VerifyStats returns how many reads were verified and how many failed.
func (g *twinGuard) VerifyStats() (verified, violations uint64) {
	return g.verified, g.violations
}

// Write implements pcmdev.Array.
func (g *twinGuard) Write(line uint64, data, meta []byte) pcmdev.WriteResult {
	res := g.Array.Write(line, data, meta)
	g.record(line)
	return res
}

// WriteTracked implements pcmdev.Array as DEUCE's write over the wrapper
// was: the stored image is verified as it is copied out, and recorded
// once written.
func (g *twinGuard) WriteTracked(line uint64, pt, padL, padT []byte, wordBytes int, reset bool) pcmdev.WriteResult {
	g.PeekInto(line, g.data, g.meta)
	res := g.Array.WriteTracked(line, pt, padL, padT, wordBytes, reset)
	g.record(line)
	return res
}

// Load implements pcmdev.Array.
func (g *twinGuard) Load(line uint64, data, meta []byte) {
	g.Array.Load(line, data, meta)
	g.record(line)
}

// Peek implements pcmdev.Array with the same verification as ReadInto.
func (g *twinGuard) Peek(line uint64) (data, meta []byte) {
	data, meta = make([]byte, len(g.data)), make([]byte, len(g.meta))
	g.PeekInto(line, data, meta)
	return data, meta
}

// PeekInto implements pcmdev.Array with the same verification as ReadInto.
func (g *twinGuard) PeekInto(line uint64, data, meta []byte) {
	g.Array.PeekInto(line, data, meta)
	g.check(line, data, meta)
}

// ReadInto implements pcmdev.Array: the inner array's read, verified
// against the secure root.
func (g *twinGuard) ReadInto(line uint64, data, meta []byte) {
	g.Array.ReadInto(line, data, meta)
	g.check(line, data, meta)
}

// record re-reads line's stored image and makes it the line's leaf.
func (g *twinGuard) record(line uint64) {
	g.Array.PeekInto(line, g.data, g.meta)
	if err := g.tree.Update(line, g.payload); err != nil {
		panic(err) // line range already validated by the inner array
	}
}

func (g *twinGuard) check(line uint64, data, meta []byte) {
	copy(g.data, data)
	copy(g.meta, meta)
	if g.tree.VerifyLeaf(line, g.payload) {
		g.verified++
		return
	}
	g.violations++
	if g.OnViolation != nil {
		g.OnViolation(line)
		return
	}
	panic(fmt.Sprintf("integrity: line %d failed Merkle verification (tampered?)", line))
}

// Inner exposes the wrapped array — the adversary's handle in tests and
// attack demos.
func (g *twinGuard) Inner() pcmdev.Array { return g.Array }

// TestGuardMatchesTwin runs every scheme on a guarded bare device and on
// the wrapper twin over another, through one random stream of writes,
// installs, reads and single-bit tampering through the backend. After
// every operation it requires the same root, verify counts, violation
// callbacks, read-back and device statistics.
func TestGuardMatchesTwin(t *testing.T) {
	for _, kind := range core.Kinds() {
		t.Run(string(kind), func(t *testing.T) {
			const lines = 8
			var g *Guard
			var tw *twinGuard
			p := core.Params{Lines: lines, EpochInterval: 4, MakeArray: guarded(&g)}
			got := core.MustNew(kind, p)
			p.MakeArray = func(cfg pcmdev.Config) (pcmdev.Array, error) {
				dev, err := pcmdev.New(cfg)
				if err != nil {
					return nil, err
				}
				tw, err = newTwinGuard(dev)
				return tw, err
			}
			ref := core.MustNew(kind, p)
			var gotViol, refViol []uint64
			g.OnViolation = func(row uint64) { gotViol = append(gotViol, row) }
			tw.OnViolation = func(line uint64) { refViol = append(refViol, line) }
			gotDev, refDev := got.Device().(*pcmdev.Device), tw.Array.(*pcmdev.Device)
			pageBytes := gotDev.Config().PageBytes()

			rng := rand.New(rand.NewSource(5))
			touched := make([]bool, lines)
			buf, gb, rb := make([]byte, 64), make([]byte, 64), make([]byte, 64)
			for i := 0; i < 800; i++ {
				line, op := uint64(rng.Intn(lines)), rng.Intn(20)
				switch {
				case op == 0:
					off, bit := rng.Intn(pageBytes), rng.Intn(8)
					tamper(t, gotDev, line, off, bit)
					tamper(t, refDev, line, off, bit)
				case op < 3 && !touched[line]:
					rng.Read(buf)
					got.Install(line, buf)
					ref.Install(line, buf)
				case op < 9:
					got.ReadInto(line, gb)
					ref.ReadInto(line, rb)
					if !bytes.Equal(gb, rb) {
						t.Fatalf("op %d: line %d reads back differently", i, line)
					}
				default:
					for n := 1 + rng.Intn(4); n > 0; n-- {
						buf[rng.Intn(len(buf))] ^= byte(1 + rng.Intn(255))
					}
					got.Write(line, buf)
					ref.Write(line, buf)
				}
				touched[line] = touched[line] || op != 0
				gv, gx := g.VerifyStats()
				rv, rx := tw.VerifyStats()
				if g.Root() != tw.Root() || gv != rv || gx != rx || !slices.Equal(gotViol, refViol) {
					t.Fatalf("op %d: root equal %v, verified %d/%d, violations %v, twin %d/%d, %v",
						i, g.Root() == tw.Root(), gv, gx, gotViol, rv, rx, refViol)
				}
				if gotDev.Stats() != refDev.Stats() {
					t.Fatalf("op %d: stats %+v, twin %+v", i, gotDev.Stats(), refDev.Stats())
				}
			}
			if len(gotViol) == 0 {
				t.Error("no tampering was caught")
			}
		})
	}
}
