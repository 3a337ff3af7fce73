package integrity

import (
	"fmt"

	"deuce/internal/backend"
)

// This file applies the package's Merkle leaves to recovery: digesting the
// durable image of a backend region so a restart can tell whether what it
// found on storage is what the last successful Sync intended. The
// counter-recovery drill (internal/exp, ext-ctrrec) uses the leaf diff to
// both detect a torn sync and localize it to the counter region.

// PageDigests hashes every page of a backend region into per-page leaf
// digests (the same index-bound leaf construction the Merkle tree uses, so
// a digest commits to both a page's contents and its position). The
// backend is read through ReadPage, never mutated.
func PageDigests(be backend.Backend) ([]Digest, error) {
	buf := make([]byte, be.PageSize())
	var leaf []byte
	out := make([]Digest, be.Pages())
	for p := range out {
		if err := be.ReadPage(p, buf); err != nil {
			return nil, fmt.Errorf("integrity: digesting page %d: %w", p, err)
		}
		out[p], leaf = hashLeaf(leaf, uint64(p), buf)
	}
	return out, nil
}

// DiffPages returns the page indices at which got diverges from want, in
// ascending order. A length mismatch (a resized region) reports every page
// of the longer side from the first extra index on, plus any differing
// shared pages — the caller sees the full damage either way.
func DiffPages(want, got []Digest) []int {
	var diff []int
	n := len(want)
	if len(got) < n {
		n = len(got)
	}
	for i := 0; i < n; i++ {
		if want[i] != got[i] {
			diff = append(diff, i)
		}
	}
	longest := len(want)
	if len(got) > longest {
		longest = len(got)
	}
	for i := n; i < longest; i++ {
		diff = append(diff, i)
	}
	return diff
}
