package core

import (
	"deuce/internal/bitutil"
	"deuce/internal/pcmdev"
)

// AddrPad is the weaker design the paper sketches in §7.2 for systems that
// only need protection against the stolen-DIMM attack: drop the counter
// from counter-mode encryption and derive each line's pad from the secret
// key and line address alone. The pad never changes, so XOR-ing preserves
// Hamming distances and every write costs exactly what unencrypted DCW
// costs — zero write overhead from encryption.
//
// The trade-off is deliberate and documented: because pads repeat across
// writes, a bus snooper learns when a line's value recurs and can build
// same-line dictionaries over time. examples/snoop demonstrates the leak.
type AddrPad struct {
	*base
}

// NewAddrPad constructs an address-keyed encrypted memory.
func NewAddrPad(p Params) (*AddrPad, error) {
	b, err := newBase(p, "AddrPad", 0, false)
	if err != nil {
		return nil, err
	}
	s := &AddrPad{base: b}
	s.install = s.Install
	return s, nil
}

// OverheadBits implements Scheme. AddrPad needs no counters at all, but
// the baseline accounting treats counter storage as given, so the
// scheme-specific overhead is zero.
func (s *AddrPad) OverheadBits() int { return 0 }

// pad returns the line's fixed pad.
func (s *AddrPad) pad(line uint64) []byte {
	return s.gen.Pad(line, 0, s.p.LineBytes)
}

// Install implements Scheme.
func (s *AddrPad) Install(line uint64, plaintext []byte) {
	s.checkPlain(plaintext)
	s.markInstalled(line)
	ct := make([]byte, s.p.LineBytes)
	bitutil.XOR(ct, plaintext, s.pad(line))
	s.dev.Load(line, ct, nil)
}

// Write implements Scheme. Allocation-free in steady state.
func (s *AddrPad) Write(line uint64, plaintext []byte) pcmdev.WriteResult {
	s.checkPlain(plaintext)
	s.initLine(line)
	s.gen.PadInto(s.scr.padL, line, 0)
	bitutil.XOR(s.scr.newData, plaintext, s.scr.padL)
	return s.observe(line, s.dev.Write(line, s.scr.newData, nil), false)
}

// ReadInto implements Scheme.
func (s *AddrPad) ReadInto(line uint64, dst []byte) {
	s.checkDst(dst)
	s.initLine(line)
	s.dev.ReadInto(line, s.scr.oldData, nil)
	s.gen.PadInto(s.scr.padL, line, 0)
	bitutil.XOR(dst, s.scr.oldData, s.scr.padL)
}

// INVMM models i-NVMM (Chhabra & Solihin, ISCA 2011 — paper §7.2, ref
// [17]): keep the hot working set in plain text for zero encryption write
// overhead, encrypt lines as they cool, and encrypt everything on power
// down. The paper's critique — writebacks to hot lines cross the bus (and
// sit in the array) unencrypted, so bus snooping and an unlucky power cut
// are unprotected — is inherent to the design and reproduced here.
//
// Hotness is tracked at line granularity with an LRU set of HotCapacity
// lines (the real system works on pages with an idle-time predictor; LRU
// at line grain preserves the cost structure: hot writes are DCW-cheap,
// cooling a line costs a full re-encryption).
type INVMM struct {
	*base
	capacity int
	lru      *lineLRU
	// slotScratch backs WriteResult.SlotFlips on writes that trigger a
	// cooling re-encryption: both writes' SlotFlips alias the device's
	// scratch, which the second write overwrites, so the merged view
	// must live in a scheme-owned buffer. Pre-sized for two full lines
	// of slots, keeping the write path allocation-free.
	slotScratch []int
}

// NewINVMM constructs an i-NVMM-style partially encrypted memory. The hot
// set defaults to 1/8 of the lines.
func NewINVMM(p Params) (*INVMM, error) {
	b, err := newBase(p, "i-NVMM", 0, false)
	if err != nil {
		return nil, err
	}
	capacity := b.p.HotCapacity
	if capacity == 0 {
		capacity = b.p.Lines / 8
	}
	if capacity < 1 {
		capacity = 1
	}
	s := &INVMM{
		base:        b,
		capacity:    capacity,
		lru:         newLineLRU(b.p.Lines),
		slotScratch: make([]int, 0, 2*b.p.LineBytes*8/pcmdev.SlotBits),
	}
	s.install = s.Install
	return s, nil
}

// OverheadBits implements Scheme: one controller-side hotness bit per line
// (kept off-array, like the counters).
func (s *INVMM) OverheadBits() int { return 0 }

// HotLines returns the current number of plaintext-resident lines.
func (s *INVMM) HotLines() int { return s.lru.Len() }

// coolLine re-encrypts a line displaced from the hot set in place, using
// the shared write-path scratch buffers, and returns the device cost. The
// returned result's SlotFlips aliases the device scratch.
func (s *INVMM) coolLine(line uint64) pcmdev.WriteResult {
	s.dev.PeekInto(line, s.scr.oldData, nil)
	ctr, _ := s.ctrs.Increment(line)
	s.gen.EncryptInto(s.scr.newData, line, ctr, s.scr.oldData)
	return s.dev.Write(line, s.scr.newData, nil)
}

// Install implements Scheme: initial placement is encrypted (cold).
func (s *INVMM) Install(line uint64, plaintext []byte) {
	s.checkPlain(plaintext)
	s.markInstalled(line)
	s.dev.Load(line, s.gen.Encrypt(line, s.ctrs.Get(line), plaintext), nil)
}

// Write implements Scheme: the written line joins the hot set and is
// stored in plain text; a line displaced from the hot set re-encrypts
// with a fresh counter.
func (s *INVMM) Write(line uint64, plaintext []byte) pcmdev.WriteResult {
	s.checkPlain(plaintext)
	s.initLine(line)

	res := s.dev.Write(line, plaintext, nil) // hot lines live in plain text
	s.lru.Touch(line)

	if s.lru.Len() > s.capacity {
		// Cooling: encrypt the LRU victim in place. The re-encryption
		// programs cells like any write and is part of the scheme's
		// cost. Stage SlotFlips in the scheme-owned buffer before the
		// cool write recycles the device scratch.
		s.slotScratch = append(s.slotScratch[:0], res.SlotFlips...)
		cool := s.coolLine(s.lru.Evict())
		res.DataFlips += cool.DataFlips
		res.MetaFlips += cool.MetaFlips
		res.Slots += cool.Slots
		s.slotScratch = append(s.slotScratch, cool.SlotFlips...)
		res.SlotFlips = s.slotScratch
	}
	return s.observe(line, res, false)
}

// ReadInto implements Scheme.
func (s *INVMM) ReadInto(line uint64, dst []byte) {
	s.checkDst(dst)
	s.initLine(line)
	s.dev.ReadInto(line, s.scr.oldData, nil)
	if s.lru.Contains(line) {
		copy(dst, s.scr.oldData)
		return
	}
	s.gen.DecryptInto(dst, line, s.ctrs.Get(line), s.scr.oldData)
}

// PowerDown encrypts every hot line (i-NVMM's shutdown obligation) and
// returns the total cells programmed doing so — the cost, and the window
// of vulnerability, that incremental encryption defers to power-off.
func (s *INVMM) PowerDown() (flips int, err error) {
	for s.lru.Len() > 0 {
		flips += s.coolLine(s.lru.Evict()).TotalFlips()
	}
	return flips, nil
}

// Exposed reports whether a line currently sits in the array in plain text
// — the stolen-DIMM exposure window examples and tests assert on.
func (s *INVMM) Exposed(line uint64) bool {
	return s.lru.Contains(line)
}

// lineLRU is an intrusive LRU over line indices: the prev/next links for
// every possible line are preallocated at construction, so the steady-state
// touch/evict cycle of the INVMM hot set allocates nothing — container/list
// here used to cost one list.Element (and a map insert) per cooling write,
// the allocation BENCH_writehot.json flagged.
type lineLRU struct {
	prev, next []int32 // node links per line; lruOut marks "not in set"
	head, tail int32   // most / least recently used; lruNone when empty
	size       int
}

const (
	lruNone = int32(-1) // end-of-list sentinel
	lruOut  = int32(-2) // line not currently in the set
)

func newLineLRU(lines int) *lineLRU {
	l := &lineLRU{
		prev: make([]int32, lines),
		next: make([]int32, lines),
		head: lruNone,
		tail: lruNone,
	}
	for i := range l.prev {
		l.prev[i], l.next[i] = lruOut, lruOut
	}
	return l
}

// Len returns the number of lines in the set.
func (l *lineLRU) Len() int { return l.size }

// Contains reports whether the line is in the set.
func (l *lineLRU) Contains(line uint64) bool { return l.prev[line] != lruOut }

// Touch inserts the line at the front (most recently used), moving it
// there if already present.
func (l *lineLRU) Touch(line uint64) {
	n := int32(line)
	if l.prev[n] != lruOut {
		if l.head == n {
			return
		}
		l.unlink(n)
	} else {
		l.size++
	}
	l.prev[n] = lruNone
	l.next[n] = l.head
	if l.head != lruNone {
		l.prev[l.head] = n
	}
	l.head = n
	if l.tail == lruNone {
		l.tail = n
	}
}

// Evict removes and returns the least recently used line. It panics on an
// empty set (callers guard with Len).
func (l *lineLRU) Evict() uint64 {
	if l.tail == lruNone {
		panic("core: Evict on empty lineLRU")
	}
	n := l.tail
	l.unlink(n)
	l.prev[n], l.next[n] = lruOut, lruOut
	l.size--
	return uint64(n)
}

// unlink detaches a present node from the list without marking it out.
func (l *lineLRU) unlink(n int32) {
	if l.prev[n] != lruNone {
		l.next[l.prev[n]] = l.next[n]
	} else {
		l.head = l.next[n]
	}
	if l.next[n] != lruNone {
		l.prev[l.next[n]] = l.prev[n]
	} else {
		l.tail = l.prev[n]
	}
}

var (
	_ Scheme = (*AddrPad)(nil)
	_ Scheme = (*INVMM)(nil)
)

func init() {
	// Registered here rather than in registry.go to keep the paper's
	// schemes and the related-work reproductions visually separate.
	constructors[KindAddrPad] = func(p Params) (Scheme, error) { return NewAddrPad(p) }
	constructors[KindINVMM] = func(p Params) (Scheme, error) { return NewINVMM(p) }
}

// Related-work scheme kinds (§7.2).
const (
	// KindAddrPad is address-keyed encryption without counters: zero
	// write overhead, stolen-DIMM-safe, bus-snooping-unsafe.
	KindAddrPad Kind = "addr-pad"
	// KindINVMM is i-NVMM-style partial encryption: hot lines plain.
	KindINVMM Kind = "invmm"
)
