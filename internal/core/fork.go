package core

import (
	"fmt"

	"deuce/internal/otp"
	"deuce/internal/pcmdev"
)

// Forker is implemented by every scheme in this package. Fork returns an
// independent deep copy: the copy produces the bit-identical write/read
// stream the original would from this point on, and mutating either never
// affects the other. It is the in-memory fast path behind warm-state reuse
// (internal/exp): a scheme warmed once per (workload, geometry, seed,
// params) key is forked per grid cell instead of replaying the warmup.
//
// Fork covers exactly the state Persist/RestoreState round-trips (device
// contents + metadata, counters, lazily-initialized line set, scheme mode
// words) plus what persistence deliberately drops because it survives only
// in memory: device statistics and wear profiles — the measured window
// subtracts those away via ResetStats, so they must carry over bit-exactly.
type Forker interface {
	Fork() (Scheme, error)
}

// Fork deep-copies a scheme. It fails for schemes running on a wrapped
// array (Params.MakeArray, e.g. the start-gap wear schemes): the wrapper's
// state is outside this package's reach, so those cells must warm up cold.
func Fork(s Scheme) (Scheme, error) {
	f, ok := s.(Forker)
	if !ok {
		return nil, fmt.Errorf("core: scheme %q does not support Fork", s.Name())
	}
	return f.Fork()
}

// fork deep-copies the shared base state. The pad generator is not copied
// (it owns an AES cipher and per-call scratch), but it is pure: a fresh
// generator over the same key produces identical pads.
func (b *base) fork() (*base, error) {
	dev, ok := b.dev.(*pcmdev.Device)
	if !ok {
		return nil, fmt.Errorf("core: cannot fork scheme on wrapped array %T", b.dev)
	}
	gen, err := otp.NewGenerator(b.p.Key)
	if err != nil {
		return nil, err
	}
	f := &base{
		p:      b.p,
		dev:    dev.Fork(),
		gen:    gen,
		ctrs:   b.ctrs.Fork(),
		inited: b.inited.Clone(),
		scr: scratch{
			oldData:  forkBytes(b.scr.oldData),
			newData:  forkBytes(b.scr.newData),
			oldPlain: forkBytes(b.scr.oldPlain),
			oldMeta:  forkBytes(b.scr.oldMeta),
			newMeta:  forkBytes(b.scr.newMeta),
		},
	}
	f.scr.setPads(forkBytes(b.scr.pads))
	return f, nil
}

// forkBytes deep-copies a scratch buffer, preserving nil. The contents are
// only valid within one Write, but copying (rather than reallocating) keeps
// the fork byte-exact even if that contract is ever loosened.
func forkBytes(b []byte) []byte {
	if b == nil {
		return nil
	}
	return append([]byte(nil), b...)
}

// Fork implements Forker.
func (s *PlainDCW) Fork() (Scheme, error) {
	b, err := s.fork()
	if err != nil {
		return nil, err
	}
	return &PlainDCW{base: b}, nil
}

// Fork implements Forker. The codec is stateless after construction and is
// shared, as are all codec shares below.
func (s *PlainFNW) Fork() (Scheme, error) {
	b, err := s.fork()
	if err != nil {
		return nil, err
	}
	return &PlainFNW{base: b, codec: s.codec}, nil
}

// Fork implements Forker.
func (s *EncrDCW) Fork() (Scheme, error) {
	b, err := s.fork()
	if err != nil {
		return nil, err
	}
	return &EncrDCW{base: b}, nil
}

// Fork implements Forker.
func (s *EncrFNW) Fork() (Scheme, error) {
	b, err := s.fork()
	if err != nil {
		return nil, err
	}
	return &EncrFNW{base: b, codec: s.codec}, nil
}

// Fork implements Forker.
func (s *Deuce) Fork() (Scheme, error) {
	b, err := s.fork()
	if err != nil {
		return nil, err
	}
	return &Deuce{base: b, epochMask: s.epochMask}, nil
}

// Fork implements Forker.
func (s *DeuceFNW) Fork() (Scheme, error) {
	b, err := s.fork()
	if err != nil {
		return nil, err
	}
	return &DeuceFNW{
		base:      b,
		codec:     s.codec,
		epochMask: s.epochMask,
		modBytes:  s.modBytes,
		oldCTBuf:  forkBytes(s.oldCTBuf),
		newCTBuf:  forkBytes(s.newCTBuf),
	}, nil
}

// Fork implements Forker.
func (s *DynDeuce) Fork() (Scheme, error) {
	b, err := s.fork()
	if err != nil {
		return nil, err
	}
	return &DynDeuce{
		base:        b,
		codec:       s.codec,
		epochMask:   s.epochMask,
		trackBytes:  s.trackBytes,
		deuceCTBuf:  forkBytes(s.deuceCTBuf),
		deuceModBuf: forkBytes(s.deuceModBuf),
		fnwCTBuf:    forkBytes(s.fnwCTBuf),
	}, nil
}

// Fork implements Forker.
func (s *BLE) Fork() (Scheme, error) {
	b, err := s.fork()
	if err != nil {
		return nil, err
	}
	return &BLE{base: b, blocks: s.blocks}, nil
}

// Fork implements Forker.
func (s *BLEDeuce) Fork() (Scheme, error) {
	b, err := s.fork()
	if err != nil {
		return nil, err
	}
	return &BLEDeuce{base: b, blocks: s.blocks, epochMask: s.epochMask}, nil
}

// Fork implements Forker.
func (s *Secret) Fork() (Scheme, error) {
	b, err := s.fork()
	if err != nil {
		return nil, err
	}
	return &Secret{base: b, epochMask: s.epochMask, modBytes: s.modBytes}, nil
}

// Fork implements Forker.
func (s *AddrPad) Fork() (Scheme, error) {
	b, err := s.fork()
	if err != nil {
		return nil, err
	}
	return &AddrPad{base: b}, nil
}

// Fork implements Forker. The LRU is copied directly rather than via the
// persistence path: SaveState models a power-down (it flushes the hot set),
// which would change post-fork behavior.
func (s *INVMM) Fork() (Scheme, error) {
	b, err := s.fork()
	if err != nil {
		return nil, err
	}
	lru := &lineLRU{
		prev: append([]int32(nil), s.lru.prev...),
		next: append([]int32(nil), s.lru.next...),
		head: s.lru.head,
		tail: s.lru.tail,
		size: s.lru.size,
	}
	return &INVMM{
		base:        b,
		capacity:    s.capacity,
		lru:         lru,
		slotScratch: make([]int, len(s.slotScratch)),
	}, nil
}
