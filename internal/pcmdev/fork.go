package pcmdev

import "deuce/internal/backend"

// Fork returns an independent deep copy of the device: contents, metadata,
// statistics and wear profiles are duplicated, so writes to either device
// never affect the other. It is the in-memory fast path behind warm-state
// reuse (internal/exp): a device warmed once is forked per grid cell
// instead of replaying the warmup, with bit-identical results — the copy
// preserves every field that Serialize/Restore would round-trip, plus the
// statistics counters the measured window subtracts away via ResetStats.
//
// The fork always lands on the in-memory backend, whatever the original
// runs on: warm cells are RAM-resident working copies, never a second
// handle on the same durable file. On a Pager backend Fork only reads d,
// so one frozen device may be forked from many goroutines at once.
func (d *Device) Fork() *Device {
	nd := MustNew(d.cfg)
	mem := nd.pg.(*backend.Mem)
	for l := 0; l < d.cfg.Lines; l++ {
		copy(mem.Page(l), d.page(uint64(l)))
	}
	nd.stats = d.stats
	copy(nd.posWrites, d.posWrites)
	copy(nd.planes, d.planes)
	nd.pending = d.pending
	copy(nd.stage, d.stage)
	nd.nstaged = d.nstaged
	copy(nd.lineWrites, d.lineWrites)
	if d.lineWear != nil {
		for i, w := range d.lineWear {
			copy(nd.lineWear[i], w)
		}
	}
	return nd
}
