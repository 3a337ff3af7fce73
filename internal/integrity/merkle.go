// Package integrity implements the counter-authentication extension the
// paper sketches in footnote 1: counter-mode encryption is secure only
// while counters are monotone, so an adversary who can *tamper* with the
// bus or the DIMM (not just snoop it) could reset a line's counter to
// force one-time-pad reuse. The standard defence (paper refs [14], [16])
// is a Merkle tree over the counters: the root is kept in on-chip storage
// the adversary cannot touch, so any rollback of a counter (or of a
// stored line's metadata) is detected on the next read.
//
// The tree here authenticates arbitrary fixed-count leaves — the guard
// (guard.go) uses one leaf per physical row of a device, covering its
// data and metadata cells — with SHA-256, incremental updates in
// O(log n), and verification either of a single leaf against the root or
// of the whole tree.
//
// Concurrency: Tree and Guard are unlocked single-owner state, mutated
// inline by the goroutine that owns the enclosing scheme — the memory
// controller in the modeled system is one agent, and the code mirrors
// that. The digest helpers (PageDigests, DiffPages) only read the
// backends they are handed; running them concurrently with writes to
// those backends is a race in the caller.
package integrity

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
)

// HashSize is the digest size in bytes.
const HashSize = sha256.Size

// Digest is one tree node's hash.
type Digest [HashSize]byte

// Tree is a binary Merkle tree over a fixed number of leaves.
//
// The tree stores every internal node, so updates touch exactly the path
// from the modified leaf to the root. Leaves are hashed with a
// domain-separation prefix and their index, preventing leaf/node and
// cross-position confusions.
type Tree struct {
	leaves int
	levels [][]Digest // levels[0] = leaf hashes, last level = [root]
	// leaf stages one leaf's hash input, so that updates and checks
	// against the live tree do not allocate.
	leaf []byte
}

// NewTree builds a tree over `leaves` zero-valued leaves.
func NewTree(leaves int) (*Tree, error) {
	if leaves < 1 {
		return nil, fmt.Errorf("integrity: need at least one leaf, got %d", leaves)
	}
	t := &Tree{leaves: leaves}
	width := leaves
	for {
		t.levels = append(t.levels, make([]Digest, width))
		if width == 1 {
			break
		}
		width = (width + 1) / 2
	}
	// Initialize bottom-up from zero leaves.
	for i := 0; i < leaves; i++ {
		t.levels[0][i], t.leaf = hashLeaf(t.leaf, uint64(i), nil)
	}
	for li := 1; li < len(t.levels); li++ {
		for i := range t.levels[li] {
			t.levels[li][i] = t.hashChildren(li, i)
		}
	}
	return t, nil
}

// MustNewTree is NewTree for sizes known to be valid.
func MustNewTree(leaves int) *Tree {
	t, err := NewTree(leaves)
	if err != nil {
		panic(err)
	}
	return t
}

// Leaves returns the leaf count.
func (t *Tree) Leaves() int { return t.leaves }

// Root returns the current root digest (the on-chip secure register).
func (t *Tree) Root() Digest { return t.levels[len(t.levels)-1][0] }

// Update recomputes the tree after leaf idx changes to payload.
func (t *Tree) Update(idx uint64, payload []byte) error {
	if idx >= uint64(t.leaves) {
		return fmt.Errorf("integrity: leaf %d out of range [0,%d)", idx, t.leaves)
	}
	t.levels[0][idx], t.leaf = hashLeaf(t.leaf, idx, payload)
	i := int(idx)
	for li := 1; li < len(t.levels); li++ {
		i /= 2
		t.levels[li][i] = t.hashChildren(li, i)
	}
	return nil
}

// Proof is the authentication path for one leaf: the sibling digest at
// every level, bottom-up.
type Proof struct {
	Leaf     uint64
	Siblings []Digest
}

// Prove returns the authentication path for leaf idx.
func (t *Tree) Prove(idx uint64) (Proof, error) {
	if idx >= uint64(t.leaves) {
		return Proof{}, fmt.Errorf("integrity: leaf %d out of range [0,%d)", idx, t.leaves)
	}
	p := Proof{Leaf: idx}
	i := int(idx)
	for li := 0; li < len(t.levels)-1; li++ {
		sib := i ^ 1
		if sib < len(t.levels[li]) {
			p.Siblings = append(p.Siblings, t.levels[li][sib])
		} else {
			// Odd node at the level edge is promoted with a
			// zero sibling marker.
			p.Siblings = append(p.Siblings, Digest{})
		}
		i /= 2
	}
	return p, nil
}

// Verify checks a leaf payload against a root using an authentication path.
// It is a pure function of its inputs: a memory controller verifying a read
// needs only the on-chip root and the fetched path.
func Verify(root Digest, leaves int, p Proof, payload []byte) bool {
	if p.Leaf >= uint64(leaves) {
		return false
	}
	cur, _ := hashLeaf(nil, p.Leaf, payload)
	i := int(p.Leaf)
	width := leaves
	for _, sib := range p.Siblings {
		hasSibling := (i^1 < width)
		if hasSibling {
			if i%2 == 0 {
				cur = hashPair(cur, sib)
			} else {
				cur = hashPair(sib, cur)
			}
		} else {
			cur = hashOdd(cur)
		}
		i /= 2
		width = (width + 1) / 2
	}
	return width == 1 && cur == root
}

// VerifyLeaf checks a payload directly against the live tree: Verify's
// computation along Prove's path, read off the levels in place.
func (t *Tree) VerifyLeaf(idx uint64, payload []byte) bool {
	if idx >= uint64(t.leaves) {
		return false
	}
	var cur Digest
	cur, t.leaf = hashLeaf(t.leaf, idx, payload)
	i := int(idx)
	for _, level := range t.levels[:len(t.levels)-1] {
		switch sib := i ^ 1; {
		case sib >= len(level):
			cur = hashOdd(cur)
		case i%2 == 0:
			cur = hashPair(cur, level[sib])
		default:
			cur = hashPair(level[sib], cur)
		}
		i /= 2
	}
	return cur == t.Root()
}

func (t *Tree) hashChildren(level, i int) Digest {
	below := t.levels[level-1]
	l := 2 * i
	r := 2*i + 1
	if r < len(below) {
		return hashPair(below[l], below[r])
	}
	return hashOdd(below[l])
}

// hashLeaf hashes leaf idx's payload behind the leaf domain byte and the
// index, staging the hash input in buf; it returns the digest and buf.
func hashLeaf(buf []byte, idx uint64, payload []byte) (Digest, []byte) {
	buf = append(buf[:0], 0x00) // leaf domain
	buf = binary.LittleEndian.AppendUint64(buf, idx)
	buf = append(buf, payload...)
	return sha256.Sum256(buf), buf
}

func hashPair(l, r Digest) Digest {
	var b [1 + 2*HashSize]byte
	b[0] = 0x01 // internal-node domain
	copy(b[1:], l[:])
	copy(b[1+HashSize:], r[:])
	return sha256.Sum256(b[:])
}

func hashOdd(l Digest) Digest {
	var b [1 + HashSize]byte
	b[0] = 0x02 // promoted odd node domain
	copy(b[1:], l[:])
	return sha256.Sum256(b[:])
}
