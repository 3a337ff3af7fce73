// securekv runs a small persistent key-value store whose backing store is
// an encrypted PCM memory, and compares what the store's write traffic
// costs under the baseline encryption versus DEUCE.
//
// The store itself lives in internal/kvstore (fixed-size slots, FNV-style
// hashing with linear probing) and is shared with the sharded serving
// front end, internal/servefront — this example is the single-threaded
// cost comparison; bench/'s serve-zipf and serve-contended workloads
// measure the same store behind that front end.
//
//	go run ./examples/securekv
package main

import (
	"bytes"
	"fmt"
	"log"
	"math/rand"

	"deuce"
	"deuce/internal/kvstore"
)

func run(scheme deuce.Scheme) (deuce.Stats, error) {
	mem, err := deuce.New(deuce.Options{Lines: 4096, Scheme: scheme})
	if err != nil {
		return deuce.Stats{}, err
	}
	kv := kvstore.New(mem)
	rng := rand.New(rand.NewSource(42))

	// Load 1000 sensor records, then update their readings many times —
	// value churn with stable keys.
	keys := make([]string, 1000)
	for i := range keys {
		keys[i] = fmt.Sprintf("sensor-%04d", i)
		if err := kv.Put(keys[i], "0"); err != nil {
			return deuce.Stats{}, err
		}
	}
	mem.ResetStats() // measure steady-state updates only
	for i := 0; i < 20000; i++ {
		k := keys[rng.Intn(len(keys))]
		if err := kv.Put(k, fmt.Sprintf("%d", rng.Intn(1000))); err != nil {
			return deuce.Stats{}, err
		}
	}

	// Verify a few reads round-trip.
	if _, ok := kv.Get(keys[0]); !ok {
		return deuce.Stats{}, fmt.Errorf("kv: lost record %q", keys[0])
	}
	if _, ok := kv.Get("no-such-key"); ok {
		return deuce.Stats{}, fmt.Errorf("kv: phantom record")
	}
	return mem.Stats(), nil
}

func main() {
	fmt.Println("secure KV store: 20k record updates on encrypted PCM")
	fmt.Println()
	var baseline float64
	for _, scheme := range []deuce.Scheme{deuce.EncrDCW, deuce.EncrFNW, deuce.DEUCE, deuce.DynDEUCE} {
		st, err := run(scheme)
		if err != nil {
			log.Fatal(err)
		}
		if scheme == deuce.EncrDCW {
			baseline = st.FlipFraction
		}
		fmt.Printf("%-10s %6.1f%% of cells programmed per update  (%.0f cells, %4.2f write slots)  %.2fx vs baseline\n",
			scheme, st.FlipFraction*100, st.AvgFlipsPerWrite, st.AvgWriteSlots,
			baseline/st.FlipFraction)
	}

	powerCycleDemo()
}

// powerCycleDemo exercises what makes the memory *non-volatile*: the store
// survives a power cycle through Persist/RestoreState, encrypted at rest.
func powerCycleDemo() {
	fmt.Println()
	opts := deuce.Options{Lines: 4096, Scheme: deuce.DEUCE}
	mem := deuce.MustNew(opts)
	kv := kvstore.New(mem)
	if err := kv.Put("launch-code", "0000"); err != nil {
		log.Fatal(err)
	}

	var dimm bytes.Buffer // the "stolen DIMM" image
	if err := mem.Persist(&dimm); err != nil {
		log.Fatal(err)
	}
	if bytes.Contains(dimm.Bytes(), []byte("launch-code")) {
		log.Fatal("persisted image leaks plaintext!")
	}

	restored := deuce.MustNew(opts) // same key: the legitimate owner
	if err := restored.RestoreState(&dimm); err != nil {
		log.Fatal(err)
	}
	v, ok := kvstore.New(restored).Get("launch-code")
	fmt.Printf("power cycle: record recovered after restore: %v (value %q)\n", ok, v)
	fmt.Println("persisted image contains no plaintext — stolen-DIMM safe at rest")
}
