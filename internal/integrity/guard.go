package integrity

import (
	"fmt"

	"deuce/internal/pcmdev"
)

// Guard is Merkle authentication of every stored row of a PCM device
// (data cells plus metadata cells). The root digest models the
// processor-resident secure register of Bonsai-Merkle-style designs: an
// adversary with full control of the array contents (bus tampering, §2.4
// footnote 1) cannot roll a row back to an earlier image — including its
// DEUCE modified bits — without the next read failing verification.
//
// Guard is the device's pcmdev.Observer: it hashes each row's live page
// where the device changes it, and verifies the page before the device
// reads it or builds a write on it. Any scheme in internal/core runs on a
// guarded device unchanged, and so does a wear leveler's remapped device,
// whose moves are placements the guard sees. Leaves are physical rows; on
// a bare device a row is its line.
type Guard struct {
	tree *Tree

	// OnViolation is invoked with the offending row when a read fails
	// authentication. Nil means panic (a memory controller would raise
	// a machine check; simulations usually want the loud default).
	OnViolation func(row uint64)

	verified   uint64
	violations uint64
}

// NewGuard attaches a guard to dev, its tree initialized to the device's
// current contents.
func NewGuard(dev *pcmdev.Device) (*Guard, error) {
	tree, err := NewTree(dev.Backend().Pages())
	if err != nil {
		return nil, err
	}
	g := &Guard{tree: tree}
	if err := dev.Observe(g); err != nil {
		return nil, err
	}
	return g, nil
}

// MustNewGuard is NewGuard for devices known to be unobserved.
func MustNewGuard(dev *pcmdev.Device) *Guard {
	g, err := NewGuard(dev)
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

// Stored implements pcmdev.Observer: the row's new image becomes its leaf.
func (g *Guard) Stored(row uint64, page []byte) {
	if err := g.tree.Update(row, page); err != nil {
		panic(err) // the device only reports its own rows
	}
}

// Check implements pcmdev.Observer: the row's image is verified against
// the secure root.
func (g *Guard) Check(row uint64, page []byte) {
	if g.tree.VerifyLeaf(row, page) {
		g.verified++
		return
	}
	g.violations++
	if g.OnViolation != nil {
		g.OnViolation(row)
		return
	}
	panic(fmt.Sprintf("integrity: row %d failed Merkle verification (tampered?)", row))
}

var _ pcmdev.Observer = (*Guard)(nil)
