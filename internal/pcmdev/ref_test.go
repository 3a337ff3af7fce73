package pcmdev

import (
	"encoding/binary"
	"math/bits"

	"deuce/internal/bitutil"
)

// refDevice is the reference the bit-sliced wear accounting is checked
// against: Device's write path as it was before the planes, over plain
// byte pages. It counts slot flips with HammingRange and then walks the
// XOR of the images again, doing one posWrites increment per programmed
// cell.
type refDevice struct {
	cfg        Config
	pages      [][]byte
	stats      Stats
	posWrites  []uint64
	lineWrites []uint64
	lineWear   [][]uint32
}

func newRef(cfg Config) *refDevice {
	cfg.setDefaults()
	r := &refDevice{
		cfg:        cfg,
		pages:      make([][]byte, cfg.Lines),
		posWrites:  make([]uint64, cfg.TotalBitsPerLine()),
		lineWrites: make([]uint64, cfg.Lines),
	}
	for i := range r.pages {
		r.pages[i] = make([]byte, cfg.PageBytes())
	}
	if cfg.TrackPerLineWear {
		r.lineWear = make([][]uint32, cfg.Lines)
		for i := range r.lineWear {
			r.lineWear[i] = make([]uint32, cfg.TotalBitsPerLine())
		}
	}
	return r
}

// Write is the per-flip Data Comparison Write. SlotFlips is a fresh slice.
func (r *refDevice) Write(line uint64, newData, newMeta []byte) WriteResult {
	p := r.pages[line]
	old := p[:r.cfg.LineBytes]
	res := WriteResult{SlotFlips: []int{}}
	slotBytes := SlotBits / 8
	for off := 0; off < r.cfg.LineBytes; off += slotBytes {
		if f := bitutil.HammingRange(old, newData, off, slotBytes); f > 0 {
			res.Slots++
			res.SlotFlips = append(res.SlotFlips, f)
			res.DataFlips += f
		}
	}
	if res.DataFlips > 0 {
		r.recordFlips(line, old, newData, 0, r.cfg.LineBits())
		copy(old, newData)
	}
	if r.cfg.MetaBits > 0 {
		oldMeta := p[r.cfg.LineBytes:]
		res.MetaFlips = r.recordFlips(line, oldMeta, newMeta, r.cfg.LineBits(), r.cfg.MetaBits)
		if res.MetaFlips > 0 {
			copy(oldMeta, newMeta)
		}
	}
	r.stats.Writes++
	r.lineWrites[line]++
	r.stats.DataFlips += uint64(res.DataFlips)
	r.stats.MetaFlips += uint64(res.MetaFlips)
	r.stats.SlotsUsed += uint64(res.Slots)
	if res.TotalFlips() == 0 {
		r.stats.ZeroWrites++
	}
	return res
}

// recordFlips advances the wear counters for every bit position (of the
// nbits live bits) where old and new differ, offsetting positions by
// bitBase, and returns the number of differing bits: eight bytes at a time,
// visiting the set bits of the XOR through TrailingZeros64.
func (r *refDevice) recordFlips(line uint64, old, new []byte, bitBase, nbits int) int {
	var lw []uint32
	if r.lineWear != nil {
		lw = r.lineWear[line]
	}
	flips := 0
	i := 0
	for ; i+8 <= len(old); i += 8 {
		diff := binary.LittleEndian.Uint64(old[i:]) ^ binary.LittleEndian.Uint64(new[i:])
		if rem := nbits - i*8; rem < 64 {
			if rem <= 0 {
				break
			}
			diff &= (uint64(1) << uint(rem)) - 1
		}
		for diff != 0 {
			p := bitBase + i*8 + bits.TrailingZeros64(diff)
			r.posWrites[p]++
			if lw != nil {
				lw[p]++
			}
			flips++
			diff &= diff - 1
		}
	}
	for ; i < len(old); i++ {
		diff := uint(old[i] ^ new[i])
		if rem := nbits - i*8; rem < 8 {
			if rem <= 0 {
				break
			}
			diff &= (uint(1) << uint(rem)) - 1
		}
		for diff != 0 {
			p := bitBase + i*8 + bits.TrailingZeros(diff)
			r.posWrites[p]++
			if lw != nil {
				lw[p]++
			}
			flips++
			diff &= diff - 1
		}
	}
	return flips
}

// fork is a deep copy, Device.Fork's reference.
func (r *refDevice) fork() *refDevice {
	n := newRef(r.cfg)
	for i, p := range r.pages {
		copy(n.pages[i], p)
	}
	n.stats = r.stats
	copy(n.posWrites, r.posWrites)
	copy(n.lineWrites, r.lineWrites)
	for i, w := range r.lineWear {
		copy(n.lineWear[i], w)
	}
	return n
}

// resetStats is Device.ResetStats's reference.
func (r *refDevice) resetStats() {
	r.stats = Stats{}
	clear(r.posWrites)
	clear(r.lineWrites)
	for _, w := range r.lineWear {
		clear(w)
	}
}
