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
// constructed on top of it via core.Params.MakeArray.
type Guard struct {
	inner pcmdev.Array
	tree  *Tree

	// OnViolation is invoked with the offending line when a read fails
	// authentication. Nil means panic (a memory controller would raise
	// a machine check; simulations usually want the loud default).
	OnViolation func(line uint64)

	verified   uint64
	violations uint64
}

// NewGuard wraps an array. The tree is initialized to the array's current
// (all-zero) contents.
func NewGuard(inner pcmdev.Array) (*Guard, error) {
	if inner == nil {
		return nil, fmt.Errorf("integrity: nil inner array")
	}
	tree, err := NewTree(inner.Config().Lines)
	if err != nil {
		return nil, err
	}
	g := &Guard{inner: inner, tree: tree}
	// Bring leaves in sync with the (zeroed) array so fresh reads verify.
	for line := 0; line < inner.Config().Lines; line++ {
		d, m := inner.Peek(uint64(line))
		if err := tree.Update(uint64(line), payload(d, m)); err != nil {
			return nil, err
		}
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

func payload(data, meta []byte) []byte {
	out := make([]byte, 0, len(data)+len(meta))
	out = append(out, data...)
	return append(out, meta...)
}

// Root returns the current secure-root digest.
func (g *Guard) Root() Digest { return g.tree.Root() }

// Stats returns how many reads were verified and how many failed.
func (g *Guard) VerifyStats() (verified, violations uint64) {
	return g.verified, g.violations
}

// Write implements pcmdev.Array.
func (g *Guard) Write(line uint64, data, meta []byte) pcmdev.WriteResult {
	res := g.inner.Write(line, data, meta)
	d, m := g.inner.Peek(line)
	if err := g.tree.Update(line, payload(d, m)); err != nil {
		panic(err) // line range already validated by the inner write
	}
	return res
}

// Load implements pcmdev.Array.
func (g *Guard) Load(line uint64, data, meta []byte) {
	g.inner.Load(line, data, meta)
	d, m := g.inner.Peek(line)
	if err := g.tree.Update(line, payload(d, m)); err != nil {
		panic(err)
	}
}

// Peek implements pcmdev.Array with the same verification as ReadInto.
func (g *Guard) Peek(line uint64) (data, meta []byte) {
	data, meta = g.inner.Peek(line)
	g.check(line, data, meta)
	return data, meta
}

// PeekInto implements pcmdev.Array with the same verification as ReadInto.
func (g *Guard) PeekInto(line uint64, data, meta []byte) {
	d, m := g.Peek(line)
	copy(data, d)
	copy(meta, m)
}

// ReadInto implements pcmdev.Array: the inner array's read, verified
// against the secure root. Verification hashes the fetched image, so this
// path allocates; guarded arrays are not on the zero-allocation read path.
func (g *Guard) ReadInto(line uint64, data, meta []byte) {
	g.inner.ReadInto(line, data, meta)
	g.check(line, data, meta)
}

func (g *Guard) check(line uint64, data, meta []byte) {
	if g.tree.VerifyLeaf(line, payload(data, meta)) {
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

// Config implements pcmdev.Array.
func (g *Guard) Config() pcmdev.Config { return g.inner.Config() }

// Stats implements pcmdev.Array.
func (g *Guard) Stats() pcmdev.Stats { return g.inner.Stats() }

// ResetStats implements pcmdev.Array.
func (g *Guard) ResetStats() { g.inner.ResetStats() }

// PositionWrites implements pcmdev.Array.
func (g *Guard) PositionWrites() []uint64 { return g.inner.PositionWrites() }

// LineWrites implements pcmdev.Array.
func (g *Guard) LineWrites() []uint64 { return g.inner.LineWrites() }

// Inner exposes the wrapped array — the adversary's handle in tests and
// attack demos.
func (g *Guard) Inner() pcmdev.Array { return g.inner }

var _ pcmdev.Array = (*Guard)(nil)
