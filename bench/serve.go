package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"deuce"
	"deuce/internal/kvstore"
	"deuce/internal/servefront"
)

// valueVariants is how many distinct values each key is written with. A
// value names its key ("k-000042.07"), which is what lets a client check
// that every Get returns a value some Put wrote for that key.
const valueVariants = 16

// getOp marks a Get in a client's op sequence; any other op value is the
// variant a Put writes.
const getOp = 0xff

// serveInput is the key space, its values, and each client's generator.
type serveInput struct {
	keys []string
	vals [][]string // [key][variant]
	rngs []*rand.Rand
	zips []*rand.Zipf
}

// clientOps is one client's pre-generated op sequence for a segment.
type clientOps struct {
	key []uint16
	op  []uint8
}

func newServeInput(r *run, clients int) *serveInput {
	in := &serveInput{keys: make([]string, r.sc.serveKeys), vals: make([][]string, r.sc.serveKeys)}
	for k := range in.keys {
		in.keys[k] = fmt.Sprintf("k-%06d", k)
		in.vals[k] = make([]string, valueVariants)
		for v := range in.vals[k] {
			in.vals[k][v] = fmt.Sprintf("%s.%02d", in.keys[k], v)
		}
	}
	for c := 0; c <= clients; c++ { // the last one feeds set-up
		rng := rand.New(rand.NewSource(r.seed*7919 + int64(c)))
		in.rngs = append(in.rngs, rng)
		in.zips = append(in.zips, rand.NewZipf(rng, 1.1, 1, uint64(len(in.keys)-1)))
	}
	return in
}

// gen fills ops from client c's generator: Zipfian keys (s=1.1), half
// Gets, half Puts of a random variant.
func (in *serveInput) gen(c int, ops *clientOps) {
	rng, zipf := in.rngs[c], in.zips[c]
	for i := range ops.key {
		ops.key[i] = uint16(zipf.Uint64())
		if rng.Intn(2) == 0 {
			ops.op[i] = getOp
		} else {
			ops.op[i] = uint8(rng.Intn(valueVariants))
		}
	}
}

func newClientOps(n int) *clientOps {
	return &clientOps{key: make([]uint16, n), op: make([]uint8, n)}
}

// valid reports whether got is a value some Put wrote for key k.
func (in *serveInput) valid(k int, got []byte) bool {
	key := in.keys[k]
	if len(got) != len(key)+3 || string(got[:len(key)]) != key || got[len(key)] != '.' {
		return false
	}
	hi, lo := got[len(key)+1]-'0', got[len(key)+2]-'0'
	return hi < 10 && lo < 10 && int(hi)*10+int(lo) < valueVariants
}

// setUpFront builds the sharded front end, preloads every key and runs the
// warm-up: 2×lines Puts from the set-up generator.
func (in *serveInput) setUpFront(r *run, record bool, warm *clientOps) (*servefront.Sharded, error) {
	f, err := servefront.New(servefront.Config{Shards: r.sc.serveShards, Lines: r.sc.serveLines, Record: record})
	if err != nil {
		return nil, err
	}
	for k, key := range in.keys {
		if err := f.Put(key, in.vals[k][0]); err != nil {
			return nil, fmt.Errorf("preload: %w", err)
		}
	}
	for i, k := range warm.key {
		if err := f.Put(in.keys[k], in.vals[k][warm.op[i]%valueVariants]); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return f, nil
}

// clientResult is one client's share of a segment.
type clientResult struct {
	getLat, putLat []time.Duration
	getNs, putNs   int64 // time inside Front calls
	loop           time.Duration
	bad            int64
}

// serveSegment runs every client's ops against f concurrently, each client
// in a closed loop, and returns the segment's wall time.
func (in *serveInput) serveSegment(f *servefront.Sharded, ops []*clientOps, res []*clientResult) time.Duration {
	var wg sync.WaitGroup
	start := make(chan struct{})
	for c := range ops {
		wg.Add(1)
		go func(ops *clientOps, res *clientResult) {
			defer wg.Done()
			<-start
			in.client(f, ops, res)
		}(ops[c], res[c])
	}
	t0 := time.Now()
	close(start)
	wg.Wait()
	return time.Since(t0)
}

// client issues its ops one at a time, timing each Front call and
// checking every result.
func (in *serveInput) client(f *servefront.Sharded, ops *clientOps, res *clientResult) {
	res.getLat, res.putLat = res.getLat[:0], res.putLat[:0]
	res.getNs, res.putNs, res.bad = 0, 0, 0
	var buf [kvstore.MaxVal]byte
	loopStart := time.Now()
	for i, k := range ops.key {
		key := in.keys[k]
		if op := ops.op[i]; op == getOp {
			t0 := time.Now()
			n, ok := f.Get(key, buf[:])
			d := time.Since(t0)
			res.getLat = append(res.getLat, d)
			res.getNs += int64(d)
			if !ok || !in.valid(int(k), buf[:n]) {
				res.bad++
			}
		} else {
			t0 := time.Now()
			err := f.Put(key, in.vals[k][op])
			d := time.Since(t0)
			res.putLat = append(res.putLat, d)
			res.putNs += int64(d)
			if err != nil {
				res.bad++
			}
		}
	}
	res.loop = time.Since(loopStart)
}

// runServe is serve-zipf (one client) and serve-contended (two): client
// goroutines, each in a closed loop, issue a Zipfian (s=1.1) half-Get,
// half-Put key-value workload against servefront.Sharded. Op sequences
// are generated per client before each segment's clock starts.
//
// The traced pass runs every segment on a second front end that records
// its per-shard op logs; afterwards each shard's log is replayed on one
// goroutine against a fresh kvstore.Store, which must reproduce the
// shard's contents and write accounting exactly and which times the
// store's own Get and Put.
func runServe(r *run, clients int) error {
	in := newServeInput(r, clients)
	setupGen := len(in.rngs) - 1
	warm := newClientOps(2 * r.sc.serveLines)
	in.gen(setupGen, warm)
	for i := range warm.op {
		warm.op[i] %= valueVariants // the warm-up only writes
	}
	var front *servefront.Sharded
	for i := 0; i < r.sc.setups; i++ {
		start := time.Now()
		f, err := in.setUpFront(r, false, warm)
		if err != nil {
			return err
		}
		r.add("setup_s", time.Since(start).Seconds())
		front = f
	}
	var traced *servefront.Sharded
	maxSegments := 0
	if r.trace {
		var err error
		if traced, err = in.setUpFront(r, true, warm); err != nil {
			return err
		}
		maxSegments = r.sc.serveTraceSegments // the op logs grow with every op
	}

	per := r.sc.serveSegment / clients
	ops := make([]*clientOps, clients)
	res := make([]*clientResult, clients)
	for c := range ops {
		ops[c] = newClientOps(per)
		res[c] = &clientResult{getLat: make([]time.Duration, 0, per), putLat: make([]time.Duration, 0, per)}
	}
	all := make([]time.Duration, 0, per*len(ops))
	logged0 := shardOps(traced)
	var sim simulated
	err := r.segmentLoop(maxSegments, func(seg int) error {
		for c := range ops {
			in.gen(c, ops[c])
		}
		settle()
		before := front.Stats()
		wall := in.serveSegment(front, ops, res)
		after := front.Stats()
		all = all[:0]
		var bad, loop, inCalls int64
		for _, cr := range res {
			all = append(append(all, cr.getLat...), cr.putLat...)
			bad += cr.bad
			loop += int64(cr.loop)
			inCalls += cr.getNs + cr.putNs
		}
		r.checkN(int64(len(all)), bad, "segment %d: %d requests failed or returned a value no Put wrote", seg, bad)
		if !r.trace {
			r.addLatencies(all, wall)
			sim.add(r, int(after.Writes-before.Writes), int64(after.BitFlips-before.BitFlips), int64(after.WriteSlots-before.WriteSlots))
			return nil
		}
		var gets, puts []time.Duration
		for _, cr := range res {
			gets, puts = append(gets, cr.getLat...), append(puts, cr.putLat...)
		}
		r.add("servefront.get_p99_us", us(percentile(gets, 0.99)))
		r.add("servefront.put_p99_us", us(percentile(puts, 0.99)))
		r.add("serve.client_overhead_ns", perOp(loop-inCalls, int64(len(all))))

		tracedWall := in.serveSegment(traced, ops, res)
		var getNs, putNs, nGets, nPuts, badT int64
		for _, cr := range res {
			getNs += cr.getNs
			putNs += cr.putNs
			nGets += int64(len(cr.getLat))
			nPuts += int64(len(cr.putLat))
			badT += cr.bad
		}
		r.checkN(nGets+nPuts, badT, "traced segment %d: %d requests failed or returned a value no Put wrote", seg, badT)
		r.add("servefront.get_ns", perOp(getNs, nGets))
		r.add("servefront.put_ns", perOp(putNs, nPuts))
		r.add("bench.trace_overhead", tracedWall.Seconds()/wall.Seconds())
		return nil
	})
	if err != nil {
		return err
	}
	if r.trace {
		logged := shardOps(traced)
		var max, sum float64
		for i := range logged {
			n := float64(logged[i] - logged0[i])
			sum += n
			if n > max {
				max = n
			}
		}
		r.add("servefront.shard_skew", max/(sum/float64(len(logged))))
		return replay(r, traced)
	}
	sim.report(r)
	r.add("max_rss_mb", maxRSSMiB())
	return nil
}

// shardOps is each shard's recorded op count (nil without a recording
// front end).
func shardOps(f *servefront.Sharded) []int {
	if f == nil {
		return nil
	}
	out := make([]int, f.NumShards())
	for i := range out {
		out[i] = len(f.Ops(i))
	}
	return out
}

// replay re-executes each shard's recorded op log on one goroutine against
// a fresh kvstore.Store over a memory of the shard's geometry. The replay
// must end with the shard's exact contents and write accounting; on the
// way it times the store's Get and Put and counts the memory reads each
// one probes.
func replay(r *run, f *servefront.Sharded) error {
	var getNs, putNs, gets, puts, getReads, putReads int64
	var buf [kvstore.MaxVal]byte
	for i := 0; i < f.NumShards(); i++ {
		mem, err := deuce.New(deuce.Options{Lines: f.ShardLines()})
		if err != nil {
			return err
		}
		kv := kvstore.New(mem)
		for _, op := range f.Ops(i) {
			reads := mem.Stats().Reads
			t0 := time.Now()
			if op.Put {
				err = kv.Put(op.Key, op.Value)
			} else {
				kv.GetInto(op.Key, buf[:])
			}
			d := time.Since(t0)
			if err != nil {
				return fmt.Errorf("replay of shard %d: %w", i, err)
			}
			if op.Put {
				putNs += int64(d)
				puts++
				putReads += int64(mem.Stats().Reads - reads)
			} else {
				getNs += int64(d)
				gets++
				getReads += int64(mem.Stats().Reads - reads)
			}
		}
		want, got := f.ShardStats(i), mem.Stats()
		r.check(want.Writes == got.Writes && want.Reads == got.Reads && want.BitFlips == got.BitFlips && want.WriteSlots == got.WriteSlots,
			"replay of shard %d: accounting %+v, front end %+v", i, got, want)
		snap := f.SnapshotShard(i)
		line := make([]byte, lineBytes)
		var bad int64
		for l := range snap {
			mem.ReadInto(uint64(l), line)
			if !bytes.Equal(line, snap[l]) {
				bad++
			}
		}
		r.checkN(int64(len(snap)), bad, "replay of shard %d: %d lines differ from the front end", i, bad)
	}
	r.add("kvstore.get_ns", perOp(getNs, gets))
	r.add("kvstore.put_ns", perOp(putNs, puts))
	r.add("kvstore.reads_per_get", perOp(getReads, gets))
	r.add("kvstore.reads_per_put", perOp(putReads, puts))
	frontGet, frontPut := r.samples["servefront.get_ns"], r.samples["servefront.put_ns"]
	if len(frontGet) > 0 && len(frontPut) > 0 {
		_, g, _ := quartiles(frontGet)
		_, p, _ := quartiles(frontPut)
		r.add("servefront.wait_get_ns", g-perOp(getNs, gets))
		r.add("servefront.wait_put_ns", p-perOp(putNs, puts))
	}
	return nil
}
