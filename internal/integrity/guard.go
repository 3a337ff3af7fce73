package integrity

import (
	"fmt"

	"deuce/internal/pcmdev"
)

// Guard wraps a PCM array with Merkle authentication of every line's
// stored image (data cells plus metadata cells). The root digest models
// the processor-resident secure register of Bonsai-Merkle-style designs:
// an adversary with full control of the array contents (bus tampering,
// §2.4 footnote 1) cannot roll a line back to an earlier image — including
// its DEUCE modified bits — without the next read failing verification.
//
// Guard implements pcmdev.Array, so any scheme in internal/core can be
// constructed on top of it via core.Params.MakeArray. It overrides the
// stores and reads and takes the rest from the embedded array.
type Guard struct {
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

// NewGuard wraps an array. The tree is initialized to the array's current
// (all-zero) contents.
func NewGuard(inner pcmdev.Array) (*Guard, error) {
	if inner == nil {
		return nil, fmt.Errorf("integrity: nil inner array")
	}
	cfg := inner.Config()
	tree, err := NewTree(cfg.Lines)
	if err != nil {
		return nil, err
	}
	g := &Guard{Array: inner, tree: tree, payload: make([]byte, cfg.PageBytes())}
	g.data, g.meta = g.payload[:cfg.LineBytes], g.payload[cfg.LineBytes:]
	// Bring leaves in sync with the (zeroed) array so fresh reads verify.
	for line := 0; line < cfg.Lines; line++ {
		g.record(uint64(line))
	}
	return g, nil
}

// MustNewGuard is NewGuard for arrays known to be valid.
func MustNewGuard(inner pcmdev.Array) *Guard {
	g, err := NewGuard(inner)
	if err != nil {
		panic(err)
	}
	return g
}

// Root returns the current secure-root digest.
func (g *Guard) Root() Digest { return g.tree.Root() }

// VerifyStats returns how many reads were verified and how many failed.
func (g *Guard) VerifyStats() (verified, violations uint64) {
	return g.verified, g.violations
}

// Write implements pcmdev.Array.
func (g *Guard) Write(line uint64, data, meta []byte) pcmdev.WriteResult {
	res := g.Array.Write(line, data, meta)
	g.record(line)
	return res
}

// Load implements pcmdev.Array.
func (g *Guard) Load(line uint64, data, meta []byte) {
	g.Array.Load(line, data, meta)
	g.record(line)
}

// Peek implements pcmdev.Array with the same verification as ReadInto.
func (g *Guard) Peek(line uint64) (data, meta []byte) {
	data, meta = make([]byte, len(g.data)), make([]byte, len(g.meta))
	g.PeekInto(line, data, meta)
	return data, meta
}

// PeekInto implements pcmdev.Array with the same verification as ReadInto.
func (g *Guard) PeekInto(line uint64, data, meta []byte) {
	g.Array.PeekInto(line, data, meta)
	g.check(line, data, meta)
}

// ReadInto implements pcmdev.Array: the inner array's read, verified
// against the secure root.
func (g *Guard) ReadInto(line uint64, data, meta []byte) {
	g.Array.ReadInto(line, data, meta)
	g.check(line, data, meta)
}

// record re-reads line's stored image and makes it the line's leaf.
func (g *Guard) record(line uint64) {
	g.Array.PeekInto(line, g.data, g.meta)
	if err := g.tree.Update(line, g.payload); err != nil {
		panic(err) // line range already validated by the inner array
	}
}

func (g *Guard) check(line uint64, data, meta []byte) {
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
func (g *Guard) Inner() pcmdev.Array { return g.Array }

var _ pcmdev.Array = (*Guard)(nil)
