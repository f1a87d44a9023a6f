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
type Sharded struct {
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
	if workers < 1 {
		return nil, fmt.Errorf("clam: WithWorkers(%d): worker count must be positive", workers)
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
	s := &Sharded{
		shards:  make([]*CLAM, n),
		shift:   64 - uint(bits.Len(uint(n))-1),
		workers: workers,
		chunk:   cfg.batchChunk,
		fpSeed:  seed,
	}
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

// shardIndex routes a key to its owning shard by the top log2(NumShards)
// bits. Every routing decision — single ops and batch grouping — goes
// through here.
func (s *Sharded) shardIndex(key uint64) int {
	if s.shift >= 64 {
		return 0
	}
	return int(key >> s.shift)
}

func (s *Sharded) shard(key uint64) *CLAM { return s.shards[s.shardIndex(key)] }

// NumShards returns the shard count.
func (s *Sharded) NumShards() int { return len(s.shards) }

// Workers returns the batch worker-pool bound.
func (s *Sharded) Workers() int { return s.workers }

// Shard exposes shard i for inspection (per-shard stats, clock, device).
// The returned CLAM is live; its methods take the shard lock as usual.
func (s *Sharded) Shard(i int) *CLAM { return s.shards[i] }

// --- single-key operations ---

// PutU64 adds or updates a (key, value) mapping on the key's shard.
func (s *Sharded) PutU64(key, value uint64) error {
	return s.shard(key).PutU64(key, value)
}

// UpdateU64 is an alias of PutU64 with the paper's lazy-update semantics
// (§5.1.1); see Store.
func (s *Sharded) UpdateU64(key, value uint64) error { return s.PutU64(key, value) }

// GetU64 returns the latest value stored under key.
func (s *Sharded) GetU64(key uint64) (value uint64, found bool, err error) {
	return s.shard(key).GetU64(key)
}

// DeleteU64 lazily removes key (§5.1.1) on its shard.
func (s *Sharded) DeleteU64(key uint64) error {
	return s.shard(key).DeleteU64(key)
}

// Put adds or updates a byte key → value mapping: the key's fingerprint
// picks the shard, and the record lands in that shard's value log.
func (s *Sharded) Put(key, value []byte) error {
	fp := fingerprint(key, s.fpSeed)
	return s.shards[s.shardIndex(fp)].putRecord(fp, key, value)
}

// Update is an alias of Put with the paper's lazy-update semantics
// (§5.1.1); see Store.
func (s *Sharded) Update(key, value []byte) error { return s.Put(key, value) }

// Get returns the latest value stored under key, verified against the full
// key bytes.
func (s *Sharded) Get(key []byte) (value []byte, found bool, err error) {
	fp := fingerprint(key, s.fpSeed)
	return s.shards[s.shardIndex(fp)].getRecord(fp, key)
}

// Delete lazily removes a byte key on its fingerprint's shard.
func (s *Sharded) Delete(key []byte) error {
	fp := fingerprint(key, s.fpSeed)
	return s.shards[s.shardIndex(fp)].deleteFP(fp)
}

// --- maintenance ---

// Flush forces all shards' buffered entries to flash, flushing shards in
// parallel across the worker pool.
func (s *Sharded) Flush() error {
	all := make([]int, len(s.shards))
	for i := range all {
		all[i] = i
	}
	return s.runShards(all, func(shard int) error {
		return s.shards[shard].Flush()
	})
}

// Elapse advances every shard's virtual clock by d, modeling fleet-wide
// idle time (during which SSDs garbage-collect in the background).
func (s *Sharded) Elapse(d time.Duration) {
	for _, c := range s.shards {
		c.Elapse(d)
	}
}

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

// ResetMetrics clears every shard's latency histograms and core counters,
// so every field of the next Stats snapshot covers the same since-reset
// window.
func (s *Sharded) ResetMetrics() {
	for _, c := range s.shards {
		c.ResetMetrics()
	}
}

// Stats merges the per-shard snapshots into one aggregate view: core,
// device and value-log counters are summed, latency histograms are merged
// before summarizing (so percentiles reflect the true global
// distribution), and memory footprints are added.
func (s *Sharded) Stats() Stats {
	var agg Stats
	ins := make([]*metrics.Histogram, 0, len(s.shards))
	lk := make([]*metrics.Histogram, 0, len(s.shards))
	del := make([]*metrics.Histogram, 0, len(s.shards))
	wr := make([]*metrics.Histogram, 0, len(s.shards))
	for _, c := range s.shards {
		cs, hi, hl, hd, hw := c.snapshot()
		agg.Core.Merge(cs.Core)
		agg.Device.Add(cs.Device)
		agg.ValueDevice.Add(cs.ValueDevice)
		agg.ValueLog.Add(cs.ValueLog)
		agg.Memory.Add(cs.Memory)
		ins = append(ins, hi)
		lk = append(lk, hl)
		del = append(del, hd)
		wr = append(wr, hw)
	}
	agg.InsertLatency = metrics.Merged(ins...).Summarize()
	agg.LookupLatency = metrics.Merged(lk...).Summarize()
	agg.DeleteLatency = metrics.Merged(del...).Summarize()
	agg.WriteLatency = metrics.Merged(wr...).Summarize()
	return agg
}

// --- batch grouping and the worker pool ---

// shardGroups is one batch bucketed by shard with a counting sort: shard sh
// owns positions [start[sh], start[sh+1]) of keys — and of vals, bkeys and
// bvals when the op carries them — in input order, and shards lists the
// shards with a non-empty run. Ops that scatter results back record each
// bucketed key's input position in pos and write results into the
// group-ordered res/found buffers (GetBatch writes its values into bvals).
// Instances are pooled on the Sharded because batches run concurrently.
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
func (s *Sharded) group(keys, vals []uint64, bk, bv [][]byte, scatter bool) *shardGroups {
	g, _ := s.groups.Get().(*shardGroups)
	if g == nil {
		g = &shardGroups{start: make([]int, len(s.shards)+1), cur: make([]int, len(s.shards))}
	}
	clear(g.cur)
	for _, k := range keys {
		g.cur[s.shardIndex(k)]++
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
		sh := s.shardIndex(k)
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

func (s *Sharded) putGroups(g *shardGroups) {
	// Drop the byte-slice references before pooling: a retained shardGroups
	// must not pin the previous batch's keys and values in memory.
	clear(g.bkeys)
	clear(g.bvals)
	s.groups.Put(g)
}

// route runs op over every shard's run in g on the worker pool, cutting
// each run into WithBatchChunk-sized [lo, hi) chunks from its first key.
// Each chunk is one core batched-pipeline call and a cancellation point.
// A chunk error stops that shard's remaining chunks; other shards keep
// going, and all errors are joined. Work already applied stays applied.
func (s *Sharded) route(ctx context.Context, g *shardGroups, op func(c *CLAM, lo, hi int) error) error {
	return s.runShards(g.shards, func(sh int) error {
		c := s.shards[sh]
		return forChunks(ctx, g.start[sh], g.start[sh+1], s.chunk, func(lo, hi int) error {
			return op(c, lo, hi)
		})
	})
}

// runShards executes run(shard) for every listed shard on at most Workers()
// goroutines, the caller's included. Workers claim shards in list order and
// run each to completion before taking the next, so a shard is only ever
// driven by one worker and sees its operations in input order. Every shard
// is attempted whatever the others return; the errors are joined in shard
// order.
func (s *Sharded) runShards(shards []int, run func(shard int) error) error {
	errs := make([]error, len(shards))
	var next atomic.Int64
	work := func() {
		for i := int(next.Add(1) - 1); i < len(shards); i = int(next.Add(1) - 1) {
			errs[i] = run(shards[i])
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < min(s.workers, len(shards)); w++ {
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
	return errors.Join(joined...)
}

// --- U64 batches ---

// PutBatchU64 inserts len(keys) mappings, grouped by shard and run on the
// worker pool. Each chunk runs the core batched insert pipeline on its
// shard: buffer updates apply in order with one deferred CPU advance, and
// every flush the chunk triggers is issued as one address-sorted
// overlapped write submission. Within a shard the batch preserves input
// order; across shards there is no ordering. On error (or cancellation)
// the batch may be partially applied; all errors are joined.
func (s *Sharded) PutBatchU64(ctx context.Context, keys, values []uint64) error {
	if len(keys) != len(values) {
		return fmt.Errorf("clam: PutBatchU64 length mismatch: %d keys, %d values", len(keys), len(values))
	}
	g := s.group(keys, values, nil, nil, false)
	defer s.putGroups(g)
	return s.route(ctx, g, func(c *CLAM, lo, hi int) error {
		return c.putBatchU64Chunk(g.keys[lo:hi], g.vals[lo:hi])
	})
}

// GetBatchU64 looks up len(keys) keys and returns per-key results in input
// order. Each chunk of a shard's group runs through the core batched
// lookup pipeline: the in-memory phase answers buffer/Bloom hits with zero
// I/O, and the flash phase dedupes keys on the same page, sorts probes by
// device address, and overlaps them across the device's queue lanes.
// Shards run in parallel on the worker pool; ctx cancels between chunks.
func (s *Sharded) GetBatchU64(ctx context.Context, keys []uint64) (values []uint64, found []bool, err error) {
	g := s.group(keys, nil, nil, nil, true)
	defer s.putGroups(g)
	g.res = resize(g.res, len(keys))
	if err := s.route(ctx, g, func(c *CLAM, lo, hi int) error {
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
func (s *Sharded) DeleteBatchU64(ctx context.Context, keys []uint64) error {
	g := s.group(keys, nil, nil, nil, false)
	defer s.putGroups(g)
	return s.route(ctx, g, func(c *CLAM, lo, hi int) error {
		return c.deleteBatchU64Chunk(g.keys[lo:hi])
	})
}

// --- byte batches ---

// fingerprints computes the batch's fingerprints once into a pooled
// buffer; they both route the batch and serve as the shards' index keys.
// Callers return the buffer with putFingerprints when the batch is done.
func (s *Sharded) fingerprints(keys [][]byte) *[]uint64 {
	p, _ := s.fps.Get().(*[]uint64)
	if p == nil {
		p = new([]uint64)
	}
	if cap(*p) < len(keys) {
		*p = make([]uint64, len(keys))
	}
	*p = (*p)[:len(keys)]
	for i, k := range keys {
		(*p)[i] = fingerprint(k, s.fpSeed)
	}
	return p
}

func (s *Sharded) putFingerprints(p *[]uint64) { s.fps.Put(p) }

// PutBatch applies len(keys) byte Put operations through the worker pool.
// Each chunk runs two overlapped write streams on its shard: the chunk's
// records land in the value log as one tail-buffered multi-record append
// (one sequential page submission), then its fingerprints and record
// pointers run through the core batched insert pipeline with overlapped
// flush writes — the write-side mirror of GetBatch's two read streams. See
// PutBatchU64 for ordering and error semantics.
func (s *Sharded) PutBatch(ctx context.Context, keys, values [][]byte) error {
	if len(keys) != len(values) {
		return fmt.Errorf("clam: PutBatch length mismatch: %d keys, %d values", len(keys), len(values))
	}
	fpp := s.fingerprints(keys)
	defer s.putFingerprints(fpp)
	g := s.group(*fpp, nil, keys, values, false)
	defer s.putGroups(g)
	return s.route(ctx, g, func(c *CLAM, lo, hi int) error {
		return c.putBatchRecords(g.keys[lo:hi], g.bkeys[lo:hi], g.bvals[lo:hi])
	})
}

// GetBatch looks up len(keys) byte keys in input order. Each chunk runs
// two overlapped I/O streams on its shard: the core batched index pipeline
// resolves fingerprints to record pointers, then the chunk's surviving
// value-log records are fetched as one overlapped batched read.
func (s *Sharded) GetBatch(ctx context.Context, keys [][]byte) (values [][]byte, found []bool, err error) {
	fpp := s.fingerprints(keys)
	defer s.putFingerprints(fpp)
	g := s.group(*fpp, nil, keys, nil, true)
	defer s.putGroups(g)
	g.bvals = resize(g.bvals, len(keys))
	g.found = resize(g.found, len(keys))
	clear(g.bvals) // getBatchRecords writes only the keys it finds
	clear(g.found)
	if err := s.route(ctx, g, func(c *CLAM, lo, hi int) error {
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
func (s *Sharded) DeleteBatch(ctx context.Context, keys [][]byte) error {
	fpp := s.fingerprints(keys)
	defer s.putFingerprints(fpp)
	g := s.group(*fpp, nil, nil, nil, false)
	defer s.putGroups(g)
	return s.route(ctx, g, func(c *CLAM, lo, hi int) error {
		return c.deleteBatchFPs(g.keys[lo:hi])
	})
}

// --- existence probes ---

// ContainsU64 reports whether a fast-path key is present on its shard.
func (s *Sharded) ContainsU64(key uint64) (bool, error) {
	return s.shard(key).ContainsU64(key)
}

// Contains reports whether a record is indexed under key on its
// fingerprint's shard, with CLAM.Contains's no-record-read tradeoff.
func (s *Sharded) Contains(key []byte) (bool, error) {
	fp := fingerprint(key, s.fpSeed)
	return s.shards[s.shardIndex(fp)].containsFP(fp)
}

// ContainsBatch probes len(keys) byte keys through the worker pool and the
// batched index pipeline, returning per-key existence in input order. No
// value-log records are read (Contains's tradeoff), so each chunk costs
// exactly its overlapped index probes.
func (s *Sharded) ContainsBatch(ctx context.Context, keys [][]byte) ([]bool, error) {
	fpp := s.fingerprints(keys)
	defer s.putFingerprints(fpp)
	g := s.group(*fpp, nil, nil, nil, true)
	defer s.putGroups(g)
	g.found = resize(g.found, len(keys))
	if err := s.route(ctx, g, func(c *CLAM, lo, hi int) error {
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
