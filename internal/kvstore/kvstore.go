// Package kvstore is a minimal persistent key-value store over an
// encrypted PCM memory: fixed-size slots, FNV hashing with linear
// probing, one record per 64-byte line. It exists as the shared workload
// behind examples/securekv and the sharded serving front end
// (internal/servefront), which bench/'s serving workloads drive.
//
// The store is deliberately simple, but its write pattern is realistic
// for the class of in-memory databases that motivate NVM: each put
// rewrites one record's value bytes and a header word in place, leaving
// the rest of the line untouched — exactly the sparse-writeback pattern
// DEUCE exploits.
//
// The hot path is allocation-free: the key is hashed once per operation
// (probing adds an offset instead of rehashing), lines are staged in a
// store-owned scratch buffer via deuce.Memory.ReadInto, records are
// zeroed and compared in place, and GetInto copies the value into a
// caller buffer. Put and GetInto are pinned at 0 allocs/op by
// testing.AllocsPerRun; Get is the convenience form whose only
// allocation is the returned value string.
//
// The store inherits deuce.Memory's concurrency contract: it is not
// safe for concurrent use. Concurrent front ends wrap it in their own
// locking (servefront.Sharded partitions the line space into
// independently locked shards).
package kvstore

import (
	"errors"
	"fmt"

	"deuce"
)

// Record layout per 64-byte line:
// [1B used][1B keyLen][14B key][1B valLen][47B value].
const (
	// MaxKey is the longest storable key.
	MaxKey = 14
	// MaxVal is the longest storable value.
	MaxVal = 47

	lineBytes = 64
)

// ErrFull is returned by Put when every slot's probe chain is occupied by
// other keys — the table has no room for a new record.
var ErrFull = errors.New("kv: table full")

// Store maps fixed-size keys to fixed-size values, one record per line.
type Store struct {
	mem   *deuce.Memory
	lines uint64
	// line stages one decrypted record per operation. Store-owned scratch
	// (valid only within one Put/Get), safe under the memory's
	// single-goroutine contract.
	line []byte
}

// New wraps a memory as a key-value store.
func New(mem *deuce.Memory) *Store {
	return &Store{mem: mem, lines: uint64(mem.Lines()), line: make([]byte, lineBytes)}
}

// Lines returns the store's capacity in records (one per memory line).
func (s *Store) Lines() int { return int(s.lines) }

// Hash returns the FNV-64a hash of key — the store's slot-placement hash
// (slot = (Hash+probe) mod lines). Exported so front ends can derive
// decorrelated shard routing from the same bytes and so tests can
// construct slot collisions deliberately.
func Hash(key string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return h
}

// keyMatches reports whether the staged record's key equals key, comparing
// bytes in place without a string conversion.
func keyMatches(line []byte, key string) bool {
	if int(line[1]) != len(key) {
		return false
	}
	for i := 0; i < len(key); i++ {
		if line[2+i] != key[i] {
			return false
		}
	}
	return true
}

// Put inserts or updates a record. It returns an error when a key or
// value exceeds the fixed record layout, or ErrFull when no slot in the
// key's probe chain is free.
func (s *Store) Put(key, value string) error {
	if len(key) == 0 || len(key) > MaxKey || len(value) > MaxVal {
		return fmt.Errorf("kv: key/value size out of range (%d/%d)", len(key), len(value))
	}
	h := Hash(key)
	line := s.line
	for probe := uint64(0); probe < s.lines; probe++ {
		slot := (h + probe) % s.lines
		s.mem.ReadInto(slot, line)
		if line[0] == 1 && !keyMatches(line, key) {
			continue // occupied by another key
		}
		line[0] = 1
		line[1] = byte(len(key))
		copy(line[2:], key)
		for i := 2 + len(key); i < 16; i++ {
			line[i] = 0
		}
		line[16] = byte(len(value))
		copy(line[17:], value)
		for i := 17 + len(value); i < lineBytes; i++ {
			line[i] = 0
		}
		s.mem.Write(slot, line)
		return nil
	}
	return ErrFull
}

// lookup probes for key, leaving the record staged in s.line. It returns
// the value length and whether the key was found.
func (s *Store) lookup(key string) (int, bool) {
	h := Hash(key)
	line := s.line
	for probe := uint64(0); probe < s.lines; probe++ {
		slot := (h + probe) % s.lines
		s.mem.ReadInto(slot, line)
		if line[0] == 0 {
			return 0, false
		}
		if keyMatches(line, key) {
			return int(line[16]), true
		}
	}
	return 0, false
}

// Get fetches a record. The returned string is the call's only
// allocation; hot paths that own a buffer should use GetInto.
func (s *Store) Get(key string) (string, bool) {
	n, ok := s.lookup(key)
	if !ok {
		return "", false
	}
	return string(s.line[17 : 17+n]), true
}

// GetInto fetches a record's value into dst (which should hold MaxVal
// bytes) and returns the value length. It performs zero allocations.
func (s *Store) GetInto(key string, dst []byte) (int, bool) {
	n, ok := s.lookup(key)
	if !ok {
		return 0, false
	}
	return copy(dst, s.line[17:17+n]), true
}
