// Package servefront is the sharded, single-writer-line serving front
// end: S independent line-region shards, each owning a contiguous line
// region backed by its own deuce.Memory-backed scheme instance and kvstore
// region store behind its own mutex, with key→shard routing by hash.
// Thousands of client goroutines hammering distinct keys land on disjoint
// shards and never contend, while the per-shard lock serializes each
// region exactly like a single-goroutine owner would. The single-writer-
// line discipline holds by construction: a line belongs to exactly one
// shard, and only that shard's lock holder can touch it.
//
// Each shard owns its own scheme instance, so shard state (cells,
// counters, epochs, scratch) is fully disjoint and per-cell write
// accounting stays exact and Stats can merge the per-shard deuce.Stats
// integer counters bit-for-bit — the currency of the paper's evaluation
// survives sharding untouched. The differential suite pins this: the
// per-shard serialization order, replayed sequentially against a
// single-lock store of the same region geometry, reproduces identical
// final store contents and identical merged flip/write counts.
package servefront

import (
	"fmt"
	"sync"

	"deuce"
	"deuce/internal/kvstore"
)

// Config sizes a sharded front end. Zero fields select defaults.
type Config struct {
	// Scheme is the write scheme each shard's memory runs; empty means
	// DEUCE.
	Scheme deuce.Scheme
	// Shards is the number of independent line-region shards (default 8).
	Shards int
	// Lines is the total memory capacity in 64-byte lines across all
	// shards (default 4096). Must split evenly: Lines/Shards lines per
	// region, at least one per shard.
	Lines int
	// Record, when set, captures every operation in per-shard logs (in
	// the order the shard lock serialized them) for differential replay
	// suites. Recording allocates; leave it off outside tests.
	Record bool
}

func (c *Config) setDefaults() {
	if c.Scheme == "" {
		c.Scheme = deuce.DEUCE
	}
	if c.Shards <= 0 {
		c.Shards = 8
	}
	if c.Lines <= 0 {
		c.Lines = 4096
	}
}

// Op is one recorded front-end operation, in shard serialization order.
type Op struct {
	// Put distinguishes writes from reads.
	Put bool
	// Key is the operation's key.
	Key string
	// Value is the stored value (Put only).
	Value string
}

// shard is one line region: a scheme instance and its region store behind
// one lock. Shards are allocated individually so two shards' hot state
// never shares a cache line.
type shard struct {
	mu  sync.Mutex
	kv  *kvstore.Store
	mem *deuce.Memory
	rec bool
	ops []Op
}

// Sharded is the sharded single-writer-line front end. Methods are safe
// for arbitrary concurrent use; requests to different shards proceed in
// parallel.
type Sharded struct {
	shards []*shard
	n      uint64
	scheme deuce.Scheme
}

// New builds a sharded front end: Shards independent deuce.Memory
// instances of Lines/Shards lines each, one kvstore region store per
// shard.
func New(cfg Config) (*Sharded, error) {
	cfg.setDefaults()
	if cfg.Lines%cfg.Shards != 0 || cfg.Lines/cfg.Shards < 1 {
		return nil, fmt.Errorf("servefront: %d lines do not split evenly over %d shards", cfg.Lines, cfg.Shards)
	}
	per := cfg.Lines / cfg.Shards
	s := &Sharded{
		shards: make([]*shard, cfg.Shards),
		n:      uint64(cfg.Shards),
		scheme: cfg.Scheme,
	}
	for i := range s.shards {
		mem, err := deuce.New(deuce.Options{Lines: per, Scheme: cfg.Scheme})
		if err != nil {
			return nil, fmt.Errorf("servefront: shard %d: %w", i, err)
		}
		s.shards[i] = &shard{kv: kvstore.New(mem), mem: mem, rec: cfg.Record}
	}
	return s, nil
}

// route picks the owning shard. The region index comes from a finalizer
// mix of the store's own FNV-64a key hash: the raw hash places records
// within a region (slot = hash mod regionLines), so routing on it
// directly would correlate shard choice with slot residue and leave
// region slots unreachable whenever the shard count shares factors with
// the region size. The avalanche mix (splitmix64's finalizer) decorrelates
// the two uses of the same hash bytes.
func (s *Sharded) route(key string) *shard {
	h := kvstore.Hash(key)
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return s.shards[h%s.n]
}

// Get fetches key's value into dst under the owning shard's lock.
func (s *Sharded) Get(key string, dst []byte) (int, bool) {
	sh := s.route(key)
	sh.mu.Lock()
	if sh.rec {
		sh.ops = append(sh.ops, Op{Key: key})
	}
	n, ok := sh.kv.GetInto(key, dst)
	sh.mu.Unlock()
	return n, ok
}

// Put inserts or updates key under the owning shard's lock. A full region
// surfaces as kvstore.ErrFull.
func (s *Sharded) Put(key, value string) error {
	sh := s.route(key)
	sh.mu.Lock()
	if sh.rec {
		sh.ops = append(sh.ops, Op{Put: true, Key: key, Value: value})
	}
	err := sh.kv.Put(key, value)
	sh.mu.Unlock()
	return err
}

// Stats returns the exact merge of every shard's memory stats: the
// integer counters (writes, reads, bit flips, write slots) sum
// bit-for-bit because shard state is disjoint, and the derived averages
// are recomputed from the merged integers — identical to what a single
// memory that executed every shard's operations would report.
func (s *Sharded) Stats() deuce.Stats {
	var agg deuce.Stats
	lineBits := 0
	for _, sh := range s.shards {
		sh.mu.Lock()
		st := sh.mem.Stats()
		if lineBits == 0 {
			lineBits = sh.mem.LineBits()
			agg.MetadataBitsPerLine = st.MetadataBitsPerLine
		}
		sh.mu.Unlock()
		agg.Writes += st.Writes
		agg.Reads += st.Reads
		agg.BitFlips += st.BitFlips
		agg.WriteSlots += st.WriteSlots
	}
	if agg.Writes > 0 {
		agg.AvgFlipsPerWrite = float64(agg.BitFlips) / float64(agg.Writes)
		agg.AvgWriteSlots = float64(agg.WriteSlots) / float64(agg.Writes)
		agg.FlipFraction = agg.AvgFlipsPerWrite / float64(lineBits)
	}
	return agg
}

// NumShards returns the shard count.
func (s *Sharded) NumShards() int { return len(s.shards) }

// ShardLines returns the line-region size of each shard.
func (s *Sharded) ShardLines() int { return s.shards[0].mem.Lines() }

// ShardStats returns shard i's own memory stats.
func (s *Sharded) ShardStats(i int) deuce.Stats {
	sh := s.shards[i]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.mem.Stats()
}

// Ops returns shard i's recorded operation log, in the order the shard
// lock serialized them. Only meaningful after the front end has quiesced
// and only when Config.Record was set.
func (s *Sharded) Ops(i int) []Op {
	sh := s.shards[i]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.ops
}

// SnapshotShard returns a copy of shard i's decrypted line contents, for
// differential content comparison. It reads every line (and therefore
// counts reads); compare stats before snapshotting. The front end must be
// quiesced.
func (s *Sharded) SnapshotShard(i int) [][]byte {
	sh := s.shards[i]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	out := make([][]byte, sh.mem.Lines())
	for line := range out {
		buf := make([]byte, 64)
		sh.mem.ReadInto(uint64(line), buf)
		out[line] = buf
	}
	return out
}
