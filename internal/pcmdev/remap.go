package pcmdev

import (
	"fmt"
	"math/bits"

	"deuce/internal/bitutil"
)

// Remap is a wear leveler's register state (paper §5.2–5.3) as a remapped
// device sees it. The device stores every line in logical bit order and
// keeps each physical row's rotation as a register; it rotates only the
// flip words of a write, so reads and free moves rotate nothing.
type Remap interface {
	// Row returns the physical row that holds a logical line.
	Row(line uint64) uint64
	// Rotation returns how many cells left the memory's shifter rotates
	// the line's data+metadata cells by, modulo LineBits+MetaBits.
	Rotation(line uint64) uint64
	// Wrote is called after every Write and WriteTracked. It may advance
	// the registers and relocate lines with Move or Exchange.
	Wrote()
}

// remap is a remapped device's side of its Remap.
type remap struct {
	Remap
	rot  []int // per physical row: the rotation its cells are stored at
	free bool  // moves are placed without any accounting
	n    int   // rotation modulus: LineBits+MetaBits
	// a and b hold one line's cells as words in stage-row layout: the
	// data cells, then the metadata cells, LSB-first.
	a, b []uint64
	img  []byte // the line image an exchange holds
}

// NewRemapped creates a PCM array in RAM of cfg.Lines logical lines over
// rows physical rows, placed by r. Config reports the logical geometry;
// LineWrites and LineWear count physical rows. With freeMoves every Move
// and Exchange places cells without wear, flip or write accounting. Its
// pages are live RAM, so a move copies between them directly.
func NewRemapped(cfg Config, rows int, r Remap, freeMoves bool) (*Device, error) {
	if cfg.Lines <= 0 || rows < cfg.Lines {
		return nil, fmt.Errorf("pcmdev: %d lines over %d physical rows", cfg.Lines, rows)
	}
	phys := cfg
	phys.Lines = rows
	d, err := New(phys)
	if err != nil {
		return nil, err
	}
	d.cfg.Lines = cfg.Lines
	words := d.cfg.wearWords()
	m := &remap{Remap: r, rot: make([]int, rows), free: freeMoves, n: d.cfg.TotalBitsPerLine(),
		a: make([]uint64, words), b: make([]uint64, words), img: make([]byte, d.cfg.PageBytes())}
	for l := uint64(0); l < uint64(cfg.Lines); l++ {
		m.rot[r.Row(l)] = m.rotation(l)
	}
	d.rm = m
	return d, nil
}

// rotation returns a logical line's current rotation, reduced.
func (m *remap) rotation(line uint64) int { return int(m.Rotation(line) % uint64(m.n)) }

// commitRemapped is commit on a remapped device. The flip words in stage
// row r are in logical order: unless the row's rotation is 0 they are
// rotated to the cells the shifter programs and the cost is recounted.
// Once the write is counted the remap may step.
func (d *Device) commitRemapped(row uint64, p []byte, r int, res *WriteResult) {
	if k := d.rm.rot[row]; k != 0 {
		for w := range d.rm.a {
			d.rm.a[w] = d.stage[w][r]
		}
		d.rm.stageRotated(d.stage, r, k)
		*res = d.tally(r, d.slotScratch[:0])
		d.slotScratch = res.SlotFlips
	}
	d.program(row, p, r, res)
	d.rm.Wrote()
}

// stageRotated stores the words in a, rotated left by k cells, into stage
// row r.
func (m *remap) stageRotated(stage [][stageDepth]uint64, r, k int) {
	bitutil.RotateWords(m.b, m.a, m.n, k)
	for w, x := range m.b {
		stage[w][r] = x
	}
}

// tally counts a write's cost from its flip words in stage row r: the
// flips of each 128-bit data slot, appended to slots unless slots is nil,
// then the metadata flips.
func (d *Device) tally(r int, slots []int) WriteResult {
	res := WriteResult{}
	dataWords := d.lineBytes / 8
	for w := 0; w < dataWords; w += SlotBits / 64 {
		if f := bits.OnesCount64(d.stage[w][r]) + bits.OnesCount64(d.stage[w+1][r]); f > 0 {
			res.Slots++
			res.DataFlips += f
			if slots != nil {
				slots = append(slots, f)
			}
		}
	}
	for w := dataWords; w < len(d.stage); w++ {
		res.MetaFlips += bits.OnesCount64(d.stage[w][r])
	}
	res.SlotFlips = slots
	return res
}

// Move relocates a logical line the registers have just moved out of row
// from (Start-Gap's gap move): its cells go to its new row at its new
// rotation, and row from keeps them. Unless moves are free, the move counts
// as one write of the new row; the observer checks row from first.
func (d *Device) Move(line, from uint64) {
	d.checkLine(from)
	d.checkPage(from, d.page(from))
	d.place(d.locate(line), d.page(from), d.rm.rotation(line))
}

// Exchange relocates two logical lines whose rows the registers have just
// swapped (Security Refresh's pair swap): each line's cells go to its new
// row at its new rotation. Unless moves are free, each counts as one
// write, a's first; the observer checks both rows first.
func (d *Device) Exchange(a, b uint64) {
	m := d.rm
	ra, rb := d.locate(a), d.locate(b)
	d.checkPage(ra, d.page(ra))
	d.checkPage(rb, d.page(rb))
	copy(m.img, d.page(ra)) // b's cells
	d.place(ra, d.page(rb), m.rotation(a))
	d.place(rb, m.img, m.rotation(b))
}

// place stores a relocated line image into row at rotation k. A counted
// placement stages the diff of the row's cells as programmed, at the row's
// rotation, and the image as programmed, at k: the one place the device
// packs byte images into words. It drops its WriteResult, so the caller's
// SlotFlips stay valid.
func (d *Device) place(row uint64, img []byte, k int) {
	m := d.rm
	p := d.page(row)
	if !m.free {
		// rot(old, k0) ^ rot(new, k) = rot(rot(old, k0-k) ^ new, k)
		m.pack(p)
		bitutil.RotateWords(m.b, m.a, m.n, m.rot[row]-k)
		m.pack(img)
		for w, x := range m.b {
			m.a[w] ^= x
		}
	}
	copy(p, img)
	if m.rot[row] = k; m.free {
		d.stored(row, p)
		return
	}
	r := d.nstaged & (stageDepth - 1)
	m.stageRotated(d.stage, r, k)
	res := d.tally(r, nil)
	if d.program(row, p, r, &res); res.DataFlips+res.MetaFlips == 0 {
		d.stored(row, p) // program reports only a row it programmed
	}
}

// pack loads page image p into a. The page is laid out as the words are,
// data then metadata; bits past MetaBits are left for RotateWords to drop.
func (m *remap) pack(p []byte) {
	for i := range m.a {
		m.a[i] = loadWord(p[8*i:])
	}
}
