package kvstore

import (
	"fmt"
	"hash/fnv"
	"strings"
	"testing"

	"deuce"
)

func newStore(t *testing.T, lines int) *Store {
	t.Helper()
	mem, err := deuce.New(deuce.Options{Lines: lines, Scheme: deuce.DEUCE})
	if err != nil {
		t.Fatal(err)
	}
	return New(mem)
}

func TestPutGetRoundTrip(t *testing.T) {
	kv := newStore(t, 256)
	if err := kv.Put("alpha", "one"); err != nil {
		t.Fatal(err)
	}
	if v, ok := kv.Get("alpha"); !ok || v != "one" {
		t.Fatalf("Get(alpha) = %q,%v, want one,true", v, ok)
	}
	// Update in place.
	if err := kv.Put("alpha", "two"); err != nil {
		t.Fatal(err)
	}
	if v, _ := kv.Get("alpha"); v != "two" {
		t.Fatalf("updated value = %q, want two", v)
	}
	if _, ok := kv.Get("missing"); ok {
		t.Fatal("phantom record for missing key")
	}
}

func TestManyKeysWithProbing(t *testing.T) {
	kv := newStore(t, 512)
	const n = 300 // >50% load factor forces probe chains
	for i := 0; i < n; i++ {
		if err := kv.Put(fmt.Sprintf("k-%03d", i), fmt.Sprintf("v-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		want := fmt.Sprintf("v-%d", i)
		if v, ok := kv.Get(fmt.Sprintf("k-%03d", i)); !ok || v != want {
			t.Fatalf("key %d = %q,%v, want %q,true", i, v, ok, want)
		}
	}
}

func TestSizeLimits(t *testing.T) {
	kv := newStore(t, 64)
	if err := kv.Put("", "v"); err == nil {
		t.Error("empty key accepted")
	}
	if err := kv.Put(strings.Repeat("k", MaxKey+1), "v"); err == nil {
		t.Error("oversized key accepted")
	}
	if err := kv.Put("k", strings.Repeat("v", MaxVal+1)); err == nil {
		t.Error("oversized value accepted")
	}
	// Exactly at the limits is fine.
	k := strings.Repeat("k", MaxKey)
	v := strings.Repeat("v", MaxVal)
	if err := kv.Put(k, v); err != nil {
		t.Fatalf("max-size record rejected: %v", err)
	}
	if got, ok := kv.Get(k); !ok || got != v {
		t.Fatal("max-size record lost")
	}
}

func TestTableFull(t *testing.T) {
	kv := newStore(t, 4)
	for i := 0; i < 4; i++ {
		if err := kv.Put(fmt.Sprintf("k%d", i), "v"); err != nil {
			t.Fatal(err)
		}
	}
	if err := kv.Put("one-more", "v"); err != ErrFull {
		t.Fatalf("full table Put = %v, want ErrFull", err)
	}
}

func TestGetInto(t *testing.T) {
	kv := newStore(t, 64)
	if err := kv.Put("alpha", "payload"); err != nil {
		t.Fatal(err)
	}
	var buf [MaxVal]byte
	n, ok := kv.GetInto("alpha", buf[:])
	if !ok || string(buf[:n]) != "payload" {
		t.Fatalf("GetInto = %q,%v, want payload,true", buf[:n], ok)
	}
	if _, ok := kv.GetInto("missing", buf[:]); ok {
		t.Fatal("GetInto found a missing key")
	}
}

// TestHashMatchesFNV pins the exported Hash to the stdlib FNV-64a it
// replaces, so slot placement cannot silently drift (which would orphan
// every record behind a persisted memory image).
func TestHashMatchesFNV(t *testing.T) {
	for _, key := range []string{"", "a", "k-000123", strings.Repeat("x", MaxKey)} {
		h := fnv.New64a()
		h.Write([]byte(key))
		if got, want := Hash(key), h.Sum64(); got != want {
			t.Fatalf("Hash(%q) = %#x, want FNV-64a %#x", key, got, want)
		}
	}
}

// TestPutGetZeroAllocs pins the serving hot path at zero allocations per
// operation: hash once per op, in-place zeroing and comparison, ReadInto
// line staging, caller-buffer GetInto. Get (the string-returning
// convenience) is allowed exactly its documented return-value allocation.
func TestPutGetZeroAllocs(t *testing.T) {
	kv := newStore(t, 256)
	keys := make([]string, 32)
	for i := range keys {
		keys[i] = fmt.Sprintf("k-%03d", i)
		if err := kv.Put(keys[i], "warm"); err != nil {
			t.Fatal(err)
		}
	}
	vals := []string{"a", "bb", "ccc", "dddd"}
	i := 0
	if avg := testing.AllocsPerRun(500, func() {
		if err := kv.Put(keys[i%len(keys)], vals[i%len(vals)]); err != nil {
			t.Fatal(err)
		}
		i++
	}); avg != 0 {
		t.Fatalf("Put allocates %.1f per op, want 0", avg)
	}
	var buf [MaxVal]byte
	i = 0
	if avg := testing.AllocsPerRun(500, func() {
		if _, ok := kv.GetInto(keys[i%len(keys)], buf[:]); !ok {
			t.Fatal("lost key")
		}
		i++
	}); avg != 0 {
		t.Fatalf("GetInto allocates %.1f per op, want 0", avg)
	}
	// Misses are a hot path too: zero allocs.
	if avg := testing.AllocsPerRun(500, func() {
		if _, ok := kv.GetInto("z-missing", buf[:]); ok {
			t.Fatal("phantom key")
		}
	}); avg != 0 {
		t.Fatalf("GetInto miss allocates %.1f per op, want 0", avg)
	}
	i = 0
	if avg := testing.AllocsPerRun(500, func() {
		if _, ok := kv.Get(keys[i%len(keys)]); !ok {
			t.Fatal("lost key")
		}
		i++
	}); avg > 1 {
		t.Fatalf("Get allocates %.1f per op, want ≤1 (the returned string)", avg)
	}
}
