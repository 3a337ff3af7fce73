package exp

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
)

// codeVersionSalt names the current version of the measurement code. Cache
// keys capture an experiment's *inputs* (scale, seed, scheme parameters)
// exactly, but a recorded table also depends on the code that measured it:
// a change to a scheme, the timing model or a workload generator shifts
// results without touching any key. Bump the salt with any such change and
// every recorded table's Inputs hash stops matching, forcing the
// incremental gate to re-measure instead of re-verdicting stale numbers.
const codeVersionSalt = "deuce-measure-v6"

// InputsHash content-hashes everything that determines the result of one
// experiment at one scale: the code-version salt, the experiment ID, the
// canonical RunConfig key and the experiment's planned cell keys (which
// fold in each cell's workload profile, scheme kind and canonical
// parameters — with the AES key as a digest, never raw). Two runs with
// equal hashes produce bit-identical tables; the incremental fidelity gate
// therefore reuses a recorded table exactly when its stamped Inputs equals
// the hash a live run would compute.
//
// The empty string means "not hashable": a config carrying single-run
// observability hooks records artifacts a reused table cannot replay, so
// it never matches and always runs for real.
func InputsHash(id string, rc RunConfig) string {
	// Progress is pure narration and does not gate hashing; the recording
	// hooks do.
	if rc.Trace != nil || rc.Heatmap != nil || rc.Metrics != nil {
		return ""
	}
	rc.setDefaults()
	h := sha256.New()
	io.WriteString(h, codeVersionSalt)
	io.WriteString(h, "|")
	io.WriteString(h, id)
	io.WriteString(h, "|")
	io.WriteString(h, rc.key())
	for _, c := range cellSpecsFor(id, rc) {
		k, ok := c.key()
		if !ok {
			// A cell with no canonical key has no stable encoding; the
			// experiment cannot be safely reused from a recording.
			return ""
		}
		io.WriteString(h, "|")
		io.WriteString(h, k)
	}
	sum := h.Sum(nil)
	return hex.EncodeToString(sum[:8])
}
