package clam

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/hashutil"
	"repro/internal/metrics"
)

// Sharded is a horizontally partitioned CLAM implementing Store: the
// 64-bit key space is split across 2^b shards by the top b key bits, and
// each shard is a complete, independently locked CLAM — its own
// BufferHash, device models, value log, virtual clock and latency
// histograms. Operations on different shards proceed fully in parallel;
// operations on the same shard serialize behind that shard's mutex,
// preserving the paper's blocking-I/O semantics per shard.
//
// U64 keys route by their raw high bits (not a hash) so the partition is
// stable and transparent; they are assumed to be uniformly distributed
// fingerprints, as in every workload of the paper (hash non-uniform keys
// first, e.g. with hashutil.Mix64). Byte keys route by the high bits of
// their fingerprint, which is uniform by construction.
//
// Virtual time is per-shard: each shard's clock advances only by the work
// that shard performed, modeling one device set (and one I/O context) per
// shard. Aggregate views (Stats, Now) merge the per-shard state on demand.
//
// The Store methods come from the embedded router, the same code a CLAM
// runs with one shard.
type Sharded struct {
	router
}

// router is the one implementation of every Store method. It routes each
// key to the shard that owns it, runs a batch's shards on a pool of at
// most workers goroutines, cuts each shard's keys into chunks of at most
// chunk keys, and hands every chunk to one of the shard's locked chunk
// operations. A Sharded store embeds a router over its n shards; a CLAM
// embeds a one-shard router over itself, with one worker, the caller.
type router struct {
	shards  []*CLAM
	shift   uint // 64 - log2(len(shards)); shift ≥ 64 routes everything to shard 0
	workers int
	chunk   int       // batch chunk size (keys per core call)
	fpSeed  uint64    // deployment-level byte-key fingerprint seed
	groups  sync.Pool // *shardGroups, per-batch grouping scratch
	fps     sync.Pool // *[]uint64, per-batch byte-key fingerprint buffers
}

// openSharded builds a Sharded CLAM from a resolved config, opening one
// CLAM per shard with an even split of the flash, memory and value-log
// budgets and a per-shard derived hash seed.
func openSharded(cfg config) (*Sharded, error) {
	n := cfg.shards
	workers := cfg.workers
	if workers == 0 {
		workers = n
	}
	if n&(n-1) != 0 {
		return nil, fmt.Errorf("clam: WithShards(%d): shard count must be a power of two", n)
	}
	if workers > n {
		workers = n
	}
	if cfg.clock != nil {
		return nil, errors.New("clam: WithClock is incompatible with WithShards; each shard owns its own clock")
	}
	if cfg.customDevice != nil || cfg.customVLogDev != nil {
		return nil, errors.New("clam: WithCustomDevice/WithValueLogDevice are incompatible with WithShards; each shard owns its own devices")
	}
	if cfg.flashBytes%int64(n) != 0 {
		return nil, fmt.Errorf("clam: flash capacity %d not divisible by %d shards", cfg.flashBytes, n)
	}
	if cfg.memoryBytes%int64(n) != 0 {
		return nil, fmt.Errorf("clam: memory budget %d not divisible by %d shards", cfg.memoryBytes, n)
	}
	if cfg.valueLogBytes%int64(n) != 0 {
		return nil, fmt.Errorf("clam: value-log capacity %d not divisible by %d shards", cfg.valueLogBytes, n)
	}
	seed := cfg.seed
	if seed == 0 {
		seed = 1
	}
	s := &Sharded{router{
		shards:  make([]*CLAM, n),
		shift:   64 - uint(bits.Len(uint(n))-1),
		workers: workers,
		chunk:   cfg.batchChunk,
		fpSeed:  seed,
	}}
	for i := range s.shards {
		po := cfg
		po.flashBytes = cfg.flashBytes / int64(n)
		po.memoryBytes = cfg.memoryBytes / int64(n)
		po.valueLogBytes = cfg.valueLogBytes / int64(n)
		po.seed = hashutil.Hash64Seed(uint64(i), seed)
		c, err := openCLAM(po)
		if err != nil {
			return nil, fmt.Errorf("clam: shard %d: %w", i, err)
		}
		// Shards fingerprint byte keys with the deployment seed, not their
		// derived internal seed, so the live Shard(i) handle addresses the
		// same byte-key space the parent routes into it.
		c.fpSeed = seed
		s.shards[i] = c
	}
	return s, nil
}

// NumShards returns the shard count.
func (s *Sharded) NumShards() int { return len(s.shards) }

// Workers returns the batch worker-pool bound.
func (s *Sharded) Workers() int { return s.workers }

// Shard exposes shard i for inspection (per-shard stats, clock, device).
// The returned CLAM is live; its methods take the shard lock as usual.
func (s *Sharded) Shard(i int) *CLAM { return s.shards[i] }

// Now returns the furthest-ahead shard clock: the virtual makespan of the
// work performed so far, the number to report for end-to-end completion
// time of a parallel workload.
func (s *Sharded) Now() time.Duration {
	var max time.Duration
	for _, c := range s.shards {
		if t := c.Clock().Now(); t > max {
			max = t
		}
	}
	return max
}

// shardIndex routes a key to its owning shard by the top log2(len(shards))
// bits. Every routing decision — single ops and batch grouping — goes
// through here.
func (r *router) shardIndex(key uint64) int {
	if r.shift >= 64 {
		return 0
	}
	return int(key >> r.shift)
}

func (r *router) shard(key uint64) *CLAM { return r.shards[r.shardIndex(key)] }

// --- single-key operations ---
//
// A single-key call is a chunk of one on the key's shard: it runs the same
// batched pipeline as a batch, on one-element slices that stay on the
// stack.

// PutU64 adds or updates a (key, value) mapping on the inline fast path.
func (r *router) PutU64(key, value uint64) error {
	return r.shard(key).putBatchU64Chunk([]uint64{key}, []uint64{value})
}

// UpdateU64 is an alias of PutU64 with the paper's lazy-update semantics
// (§5.1.1): the new version shadows older ones because lookups probe
// newest-first; there is no existence check and no read-modify-write.
func (r *router) UpdateU64(key, value uint64) error { return r.PutU64(key, value) }

// GetU64 returns the latest value stored under key.
func (r *router) GetU64(key uint64) (value uint64, found bool, err error) {
	var res [1]core.LookupResult
	err = r.shard(key).getBatchU64Into([]uint64{key}, res[:])
	return res[0].Value, res[0].Found, err
}

// DeleteU64 lazily removes key (§5.1.1).
func (r *router) DeleteU64(key uint64) error {
	return r.shard(key).deleteBatchU64Chunk([]uint64{key})
}

// Put adds or updates a byte key → value mapping: the key's fingerprint
// picks the shard, the record lands in that shard's value log, and the
// fingerprint maps to the record's pointer.
func (r *router) Put(key, value []byte) error {
	fp := fingerprint(key, r.fpSeed)
	return r.shard(fp).putBatchRecords([]uint64{fp}, [][]byte{key}, [][]byte{value})
}

// Update is an alias of Put with the paper's lazy-update semantics
// (§5.1.1); see Store.
func (r *router) Update(key, value []byte) error { return r.Put(key, value) }

// Get returns the latest value stored under key, verified against the full
// key bytes in the value-log record.
func (r *router) Get(key []byte) (value []byte, found bool, err error) {
	fp := fingerprint(key, r.fpSeed)
	var values [1][]byte
	var ok [1]bool
	err = r.shard(fp).getBatchRecords([]uint64{fp}, [][]byte{key}, values[:], ok[:])
	return values[0], ok[0], err
}

// Delete lazily removes a byte key (§5.1.1). The value-log record is
// reclaimed by the log's circular overwrite.
func (r *router) Delete(key []byte) error {
	fp := fingerprint(key, r.fpSeed)
	return r.shard(fp).deleteBatchFPs([]uint64{fp})
}

// ContainsU64 reports whether key is present on the fast path. It is
// GetU64 without returning the value: same probes, same counters.
func (r *router) ContainsU64(key uint64) (bool, error) {
	_, found, err := r.GetU64(key)
	return found, err
}

// Contains reports whether a record is indexed under key's fingerprint,
// stopping at the index hit: unlike Get, it skips the value-log record
// read that would verify the full key bytes, so a duplicate probe costs
// only the index lookup. The price is the fingerprint-collision false
// positive rate the paper itself accepts at 32–64-bit fingerprints — a
// colliding key, or a key whose record the circular log has lapped, can
// report true. Workloads that need exactness read through Get.
func (r *router) Contains(key []byte) (bool, error) {
	fp := fingerprint(key, r.fpSeed)
	var found [1]bool
	err := r.shard(fp).containsBatchFPs([]uint64{fp}, found[:])
	return found[0], err
}

// --- maintenance ---

// Flush forces every shard's buffered entries to flash, flushing shards in
// parallel across the worker pool.
func (r *router) Flush() error {
	all := make([]int, len(r.shards))
	for i := range all {
		all[i] = i
	}
	return r.runShards(all, func(shard int) error {
		return r.shards[shard].flush()
	})
}

// Elapse advances every shard's virtual clock by d, modeling host idle
// time (during which SSDs garbage-collect in the background).
func (r *router) Elapse(d time.Duration) {
	for _, c := range r.shards {
		c.elapse(d)
	}
}

// ResetMetrics clears every shard's latency histograms and core counters,
// typically after a warm-up phase, so every field of the next Stats
// snapshot covers the same since-reset window.
func (r *router) ResetMetrics() {
	for _, c := range r.shards {
		c.resetMetrics()
	}
}

// Stats merges the per-shard snapshots into one aggregate view: core,
// device and value-log counters are summed, latency histograms are merged
// before summarizing (so percentiles reflect the true global
// distribution), and memory footprints are added.
func (r *router) Stats() Stats {
	var st Stats
	var h [4]metrics.Histogram
	for _, c := range r.shards {
		c.snapshot(&st, &h)
	}
	st.InsertLatency, st.LookupLatency = h[0].Summarize(), h[1].Summarize()
	st.DeleteLatency, st.WriteLatency = h[2].Summarize(), h[3].Summarize()
	return st
}

// --- batch grouping and the worker pool ---

// shardGroups is one batch bucketed by shard with a counting sort: shard sh
// owns positions [start[sh], start[sh+1]) of keys — and of vals, bkeys and
// bvals when the op carries them — in input order, and shards lists the
// shards with a non-empty run. Ops that scatter results back record each
// bucketed key's input position in pos and write results into the
// group-ordered res/found buffers (GetBatch writes its values into bvals).
// Instances are pooled on the router because batches run concurrently.
type shardGroups struct {
	start  []int
	cur    []int // counting-sort cursors
	shards []int
	pos    []int
	keys   []uint64
	vals   []uint64
	bkeys  [][]byte
	bvals  [][]byte
	res    []core.LookupResult
	found  []bool
}

// resize returns buf with length n, reallocating only when its capacity is
// short.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// group buckets a batch by owning shard in one counting sort into a pooled
// shardGroups: keys always, vals, bk and bv when non-nil, and input
// positions when scatter is set. Byte batches pass their fingerprints as
// keys. Callers return the groups with putGroups.
func (r *router) group(keys, vals []uint64, bk, bv [][]byte, scatter bool) *shardGroups {
	g, _ := r.groups.Get().(*shardGroups)
	if g == nil {
		g = &shardGroups{start: make([]int, len(r.shards)+1), cur: make([]int, len(r.shards))}
	}
	clear(g.cur)
	for _, k := range keys {
		g.cur[r.shardIndex(k)]++
	}
	g.shards = g.shards[:0]
	for sh, n := range g.cur {
		g.start[sh+1] = g.start[sh] + n
		g.cur[sh] = g.start[sh]
		if n > 0 {
			g.shards = append(g.shards, sh)
		}
	}
	g.keys = resize(g.keys, len(keys))
	if vals != nil {
		g.vals = resize(g.vals, len(keys))
	}
	if bk != nil {
		g.bkeys = resize(g.bkeys, len(keys))
	}
	if bv != nil {
		g.bvals = resize(g.bvals, len(keys))
	}
	if scatter {
		g.pos = resize(g.pos, len(keys))
	}
	for i, k := range keys {
		sh := r.shardIndex(k)
		at := g.cur[sh]
		g.cur[sh]++
		g.keys[at] = k
		if vals != nil {
			g.vals[at] = vals[i]
		}
		if bk != nil {
			g.bkeys[at] = bk[i]
		}
		if bv != nil {
			g.bvals[at] = bv[i]
		}
		if scatter {
			g.pos[at] = i
		}
	}
	return g
}

func (r *router) putGroups(g *shardGroups) {
	// Drop the byte-slice references before pooling: a retained shardGroups
	// must not pin the previous batch's keys and values in memory.
	clear(g.bkeys)
	clear(g.bvals)
	r.groups.Put(g)
}

// route runs op over every shard's run in g on the worker pool, cutting
// each run into WithBatchChunk-sized [lo, hi) chunks from its first key.
// Each chunk is one core batched-pipeline call and a cancellation point.
// A chunk error stops that shard's remaining chunks; other shards keep
// going, and their errors are combined as runShards describes. Work
// already applied stays applied.
func (r *router) route(ctx context.Context, g *shardGroups, op func(c *CLAM, lo, hi int) error) error {
	return r.runShards(g.shards, func(sh int) error {
		c := r.shards[sh]
		return forChunks(ctx, g.start[sh], g.start[sh+1], r.chunk, func(lo, hi int) error {
			return op(c, lo, hi)
		})
	})
}

// runShards executes run(shard) for every listed shard on at most Workers()
// goroutines, the caller's included. Workers claim shards in list order and
// run each to completion before taking the next, so a shard is only ever
// driven by one worker and sees its operations in input order. Every shard
// is attempted whatever the others return. A lone error is returned as it
// is, so a CLAM's errors keep their identity and a canceled batch returns
// ctx.Err() itself; several are joined in shard order.
func (r *router) runShards(shards []int, run func(shard int) error) error {
	errs := make([]error, len(shards))
	var next atomic.Int64
	work := func() {
		for i := int(next.Add(1) - 1); i < len(shards); i = int(next.Add(1) - 1) {
			errs[i] = run(shards[i])
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < min(r.workers, len(shards)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	var joined []error
	for _, err := range errs {
		// A canceled batch reports ctx.Err() from every shard it still
		// reached; keep one.
		if (err == context.Canceled || err == context.DeadlineExceeded) && slices.Contains(joined, err) {
			continue
		}
		if err != nil {
			joined = append(joined, err)
		}
	}
	if len(joined) == 1 {
		return joined[0]
	}
	return errors.Join(joined...)
}

// --- U64 batches ---

// PutBatchU64 inserts len(keys) mappings, grouped by shard and run on the
// worker pool. Each chunk runs the core batched insert pipeline on its
// shard: buffer updates apply in order with one deferred CPU advance, and
// every flush the chunk triggers is issued as one address-sorted
// overlapped write submission. Within a shard the batch preserves input
// order; across shards there is no ordering. On error (or cancellation)
// the batch may be partially applied (see runShards for the error).
func (r *router) PutBatchU64(ctx context.Context, keys, values []uint64) error {
	if len(keys) != len(values) {
		return fmt.Errorf("clam: PutBatchU64 length mismatch: %d keys, %d values", len(keys), len(values))
	}
	g := r.group(keys, values, nil, nil, false)
	defer r.putGroups(g)
	return r.route(ctx, g, func(c *CLAM, lo, hi int) error {
		return c.putBatchU64Chunk(g.keys[lo:hi], g.vals[lo:hi])
	})
}

// GetBatchU64 looks up len(keys) keys and returns per-key results in input
// order. Each chunk of a shard's group runs through the core batched
// lookup pipeline: the in-memory phase answers buffer/Bloom hits with zero
// I/O, and the flash phase dedupes keys on the same page, sorts probes by
// device address, and overlaps them across the device's queue lanes.
// Shards run in parallel on the worker pool; ctx cancels between chunks.
func (r *router) GetBatchU64(ctx context.Context, keys []uint64) (values []uint64, found []bool, err error) {
	g := r.group(keys, nil, nil, nil, true)
	defer r.putGroups(g)
	g.res = resize(g.res, len(keys))
	if err := r.route(ctx, g, func(c *CLAM, lo, hi int) error {
		return c.getBatchU64Into(g.keys[lo:hi], g.res[lo:hi])
	}); err != nil {
		return nil, nil, err
	}
	values = make([]uint64, len(keys))
	found = make([]bool, len(keys))
	for j, i := range g.pos {
		values[i], found[i] = g.res[j].Value, g.res[j].Found
	}
	return values, found, nil
}

// DeleteBatchU64 lazily removes len(keys) keys, grouped and dispatched like
// PutBatchU64, with each chunk applied as one batched core delete.
func (r *router) DeleteBatchU64(ctx context.Context, keys []uint64) error {
	g := r.group(keys, nil, nil, nil, false)
	defer r.putGroups(g)
	return r.route(ctx, g, func(c *CLAM, lo, hi int) error {
		return c.deleteBatchU64Chunk(g.keys[lo:hi])
	})
}

// --- byte batches ---

// fingerprints computes the batch's fingerprints once into a pooled
// buffer; they both route the batch and serve as the shards' index keys.
// Callers return the buffer with putFingerprints when the batch is done.
func (r *router) fingerprints(keys [][]byte) *[]uint64 {
	p, _ := r.fps.Get().(*[]uint64)
	if p == nil {
		p = new([]uint64)
	}
	if cap(*p) < len(keys) {
		*p = make([]uint64, len(keys))
	}
	*p = (*p)[:len(keys)]
	for i, k := range keys {
		(*p)[i] = fingerprint(k, r.fpSeed)
	}
	return p
}

func (r *router) putFingerprints(p *[]uint64) { r.fps.Put(p) }

// PutBatch applies len(keys) byte Put operations through the worker pool.
// Each chunk runs two overlapped write streams on its shard: the chunk's
// records land in the value log as one tail-buffered multi-record append
// (one sequential page submission), then its fingerprints and record
// pointers run through the core batched insert pipeline with overlapped
// flush writes — the write-side mirror of GetBatch's two read streams. See
// PutBatchU64 for ordering and error semantics.
func (r *router) PutBatch(ctx context.Context, keys, values [][]byte) error {
	if len(keys) != len(values) {
		return fmt.Errorf("clam: PutBatch length mismatch: %d keys, %d values", len(keys), len(values))
	}
	// Shards are alike, so shard 0 tells whether a value log exists; a
	// missing one fails the batch before ctx is checked.
	if len(keys) > 0 && r.shards[0].vlog == nil {
		return ErrNoValueLog
	}
	fpp := r.fingerprints(keys)
	defer r.putFingerprints(fpp)
	g := r.group(*fpp, nil, keys, values, false)
	defer r.putGroups(g)
	return r.route(ctx, g, func(c *CLAM, lo, hi int) error {
		return c.putBatchRecords(g.keys[lo:hi], g.bkeys[lo:hi], g.bvals[lo:hi])
	})
}

// GetBatch looks up len(keys) byte keys in input order. Each chunk runs
// two overlapped I/O streams on its shard: the core batched index pipeline
// resolves fingerprints to record pointers, then the chunk's surviving
// value-log records are fetched as one overlapped batched read.
func (r *router) GetBatch(ctx context.Context, keys [][]byte) (values [][]byte, found []bool, err error) {
	if len(keys) > 0 && r.shards[0].vlog == nil {
		return nil, nil, ErrNoValueLog
	}
	fpp := r.fingerprints(keys)
	defer r.putFingerprints(fpp)
	g := r.group(*fpp, nil, keys, nil, true)
	defer r.putGroups(g)
	g.bvals = resize(g.bvals, len(keys))
	g.found = resize(g.found, len(keys))
	clear(g.bvals) // getBatchRecords writes only the keys it finds
	clear(g.found)
	if err := r.route(ctx, g, func(c *CLAM, lo, hi int) error {
		return c.getBatchRecords(g.keys[lo:hi], g.bkeys[lo:hi], g.bvals[lo:hi], g.found[lo:hi])
	}); err != nil {
		return nil, nil, err
	}
	values = make([][]byte, len(keys))
	found = make([]bool, len(keys))
	for j, i := range g.pos {
		values[i], found[i] = g.bvals[j], g.found[j]
	}
	return values, found, nil
}

// DeleteBatch lazily removes len(keys) byte keys through the worker pool,
// applying each chunk as one batched core delete.
func (r *router) DeleteBatch(ctx context.Context, keys [][]byte) error {
	fpp := r.fingerprints(keys)
	defer r.putFingerprints(fpp)
	g := r.group(*fpp, nil, nil, nil, false)
	defer r.putGroups(g)
	return r.route(ctx, g, func(c *CLAM, lo, hi int) error {
		return c.deleteBatchFPs(g.keys[lo:hi])
	})
}

// ContainsBatch probes len(keys) byte keys through the worker pool and the
// batched index pipeline, returning per-key existence in input order. No
// value-log records are read (Contains's tradeoff), so each chunk costs
// exactly its overlapped index probes.
func (r *router) ContainsBatch(ctx context.Context, keys [][]byte) ([]bool, error) {
	fpp := r.fingerprints(keys)
	defer r.putFingerprints(fpp)
	g := r.group(*fpp, nil, nil, nil, true)
	defer r.putGroups(g)
	g.found = resize(g.found, len(keys))
	if err := r.route(ctx, g, func(c *CLAM, lo, hi int) error {
		return c.containsBatchFPs(g.keys[lo:hi], g.found[lo:hi])
	}); err != nil {
		return nil, err
	}
	found := make([]bool, len(keys))
	for j, i := range g.pos {
		found[i] = g.found[j]
	}
	return found, nil
}
