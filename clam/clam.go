// Package clam provides the public API of the CLAM — the Cheap and Large
// CAM of Anand et al. (NSDI 2010): a large hash table spanning DRAM and
// flash, built on the BufferHash data structure (internal/core), offering
// fast inserts, lookups, lazy updates/deletes, and flexible eviction.
//
// Everything is reached through one interface, Store, with one
// constructor, Open, configured by functional options:
//
//	st, err := clam.Open(
//	    clam.WithDevice(clam.IntelSSD),
//	    clam.WithFlash(16<<20),  // scaled-down stand-in for the paper's 32 GB
//	    clam.WithMemory(4<<20),  // DRAM budget, split per §6.4
//	)
//	if err != nil {
//	    // handle err
//	}
//	fp := sha1.Sum(chunk) // real content fingerprints are byte slices
//	if err := st.Put(fp[:], chunk); err != nil {
//	    // handle err
//	}
//	if data, ok, err := st.Get(fp[:]); err == nil && ok {
//	    // use data
//	}
//
// Byte keys of any length map to variable-length byte values: keys are
// fingerprinted onto the paper's 64-bit key path and records live in a
// page-aligned circular value log on slow storage, with every read
// verified against the full key bytes (see Store). Workloads that already
// have 64-bit fingerprints and word-sized values — the paper's evaluation
// — use the inline fast path (PutU64/GetU64), which bypasses the value log
// entirely and behaves exactly as before the byte API existed. Existence
// checks that don't need the value go through Contains/ContainsU64/
// ContainsBatch, which stop at the index hit and skip the record read
// (accepting the fingerprint-collision rate the paper accepts).
//
// Adding WithShards(8) to the same option list opens a Sharded store: the
// key space is partitioned by top fingerprint bits across independent
// shards, each a complete CLAM with its own BufferHash, device models,
// virtual clock and histograms. Both stores share one implementation of
// every Store method, a router over their shards; a CLAM is the router's
// one-shard case. Batch operations group their keys by shard and run the
// shards on a bounded worker pool, each shard's keys in chunks of
// WithBatchChunk keys. GetBatch/GetBatchU64 run each chunk
// through the core batched lookup pipeline, overlapping index page probes
// — and then value-log record reads, a second I/O stream — across the
// device's internal queue lanes. PutBatch/PutBatchU64 are the write-side
// mirror: each chunk's records land in the value log as one multi-record
// append, and every buffer flush the chunk triggers is issued as one
// address-sorted storage.BatchWriter submission, so flush writes overlap
// the same way lookup probes do (Stats.WriteLatency shows the flattened
// write tail). A single-key call runs the same pipeline as a batch of one,
// so results and counters do not depend on how keys are batched.
//
// # Worker model: one worker per shard
//
// A CLAM is one BufferHash behind one mutex, the paper's blocking-I/O
// design point (§5), and a Sharded store gets its parallelism from
// independent shards. A batch op buckets its keys by shard with one
// counting sort, keeping input order within each shard. A pool of at most
// WithWorkers goroutines then claims the shards with keys in shard order;
// a worker drains its shard chunk by chunk, each chunk one core
// batched-pipeline call, before it takes the next shard. A shard's keys
// are cut into chunks exactly as its own batch method would cut them, so
// virtual time, counters and results do not depend on the worker count.
// Under heavy skew one worker drains the hot shard while the others
// finish early; no worker shares a shard. A CLAM runs the same steps with
// one shard, itself, and one worker: the caller's goroutine.
//
// A CLAM is opened over simulated storage devices (Intel-class SSD,
// Transcend-class SSD, raw NAND chip, or magnetic disk, each calibrated
// against the latencies the paper reports for its hardware) and operates in
// virtual time: every operation advances a virtual clock by its modeled
// latency, and per-operation latency distributions are recorded in
// histograms that the experiment harness turns into the paper's tables
// and figures.
//
// All Store methods are safe for concurrent use. A single CLAM serializes
// operations behind one mutex, matching the paper's blocking-I/O design
// point; a Sharded store serializes per shard and runs shards in parallel.
package clam

import (
	"bytes"
	"context"
	"fmt"
	"math/bits"
	"sync"
	"time"

	"repro/internal/bitslice"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/metrics"
	"repro/internal/storage"
	"repro/internal/vclock"
)

// DeviceKind selects one of the calibrated device models.
type DeviceKind int

// Device models (see internal/ssd, internal/flashchip, internal/disk).
const (
	// IntelSSD is the paper's Intel X18-M: page-mapped FTL, fast reads.
	IntelSSD DeviceKind = iota
	// TranscendSSD is the paper's Transcend TS32GSSD25: block-mapped FTL,
	// an older and much cheaper device.
	TranscendSSD
	// FlashChip is a raw NAND chip (2 KB pages, 128 KB erase blocks).
	FlashChip
	// MagneticDisk is a 7200-rpm hard disk (the BH+Disk baseline).
	MagneticDisk
)

// String returns the device name.
func (d DeviceKind) String() string {
	switch d {
	case IntelSSD:
		return "ssd-intel"
	case TranscendSSD:
		return "ssd-transcend"
	case FlashChip:
		return "flash-chip"
	case MagneticDisk:
		return "disk"
	default:
		return fmt.Sprintf("device(%d)", int(d))
	}
}

// Policy re-exports the BufferHash eviction policies (§5.1.2).
type Policy = core.EvictionPolicy

// Eviction policies.
const (
	FIFO          = core.FIFO
	LRU           = core.LRU
	UpdateBased   = core.UpdateBased
	PriorityBased = core.PriorityBased
)

// CLAM is a cheap and large CAM — one instance of the paper's design,
// implementing Store. Safe for concurrent use; operations serialize behind
// one mutex (the paper's blocking-I/O design point).
//
// Its Store methods come from the embedded router, a one-shard router over
// the CLAM itself, so a CLAM and a Sharded store run the same code.
type CLAM struct {
	router

	mu     sync.Mutex
	bh     *core.BufferHash
	dev    storage.Device
	vlog   *storage.ValueLog // nil iff no value-log device was configured
	clock  *vclock.Clock
	insert metrics.Histogram
	lookup metrics.Histogram
	del    metrics.Histogram
	write  metrics.Histogram // per-request device write service (see Stats.WriteLatency)

	batchRes []core.LookupResult    // GetBatch scratch, guarded by mu
	batchReq []storage.ValueReadReq // GetBatch value-log scratch, guarded by mu
	batchIdx []int                  // GetBatch scatter scratch, guarded by mu

	putOffs  []int64  // PutBatch value-log pointer scratch, guarded by mu
	putNs    []int    // PutBatch value-log pointer scratch, guarded by mu
	putPtrs  []uint64 // PutBatch encoded-pointer scratch, guarded by mu
	deadSeen []int32  // PutBatch/DeleteBatch per-chunk dup table, guarded by mu
}

// effectiveEntryBytes is s in the §6 analysis: 16-byte entries at 50%
// cuckoo utilization occupy 32 bytes of buffer/flash per stored entry.
const effectiveEntryBytes = 32.0

// openCLAM builds a single CLAM from a resolved config.
func openCLAM(cfg config) (*CLAM, error) {
	clock := cfg.clock
	if clock == nil {
		clock = vclock.New()
	}
	c := &CLAM{clock: clock}
	dev := cfg.customDevice
	vdev := cfg.customVLogDev
	if dev == nil {
		var err error
		if dev, err = newKindDevice(cfg.device, cfg.flashBytes, clock); err != nil {
			return nil, err
		}
		vbytes := cfg.valueLogBytes
		if vbytes == 0 {
			vbytes = cfg.flashBytes
		}
		if vdev, err = newKindDevice(cfg.device, vbytes, clock); err != nil {
			return nil, err
		}
		// Both slow-storage write streams — incarnation images and value-log
		// pages — feed one write-latency histogram (Stats.WriteLatency).
		dev = timeWrites(dev, &c.write)
		vdev = timeWrites(vdev, &c.write)
	}
	coreCfg, err := deriveConfig(cfg, dev, clock)
	if err != nil {
		return nil, err
	}
	bh, err := core.New(coreCfg)
	if err != nil {
		return nil, err
	}
	c.bh = bh
	c.dev = dev
	c.router = router{
		shards:  []*CLAM{c},
		shift:   64,
		workers: 1,
		chunk:   cfg.batchChunk,
		fpSeed:  coreCfg.Seed,
	}
	if vdev != nil {
		if c.vlog, err = storage.NewValueLog(vdev); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// deriveConfig applies §6.4: choose B′ (≈ flash block), the number of super
// tables from B_opt, k = F/(nt·B′), and give all remaining memory to Bloom
// filters.
func deriveConfig(cfg config, dev storage.Device, clock *vclock.Clock) (core.Config, error) {
	g := dev.Geometry()
	bufBytes := cfg.bufferKB << 10
	if bufBytes == 0 {
		bufBytes = 128 << 10
		if _, erasable := dev.(storage.Eraser); erasable && g.BlockSize > 0 {
			bufBytes = g.BlockSize
		}
	}
	maxK := cfg.maxIncarnations
	if maxK == 0 {
		maxK = 16
	}

	// Total buffer allocation: B_opt, clamped to at most half the memory
	// budget, and at least one buffer.
	bOpt := costmodel.OptimalBufferBytes(cfg.flashBytes, effectiveEntryBytes)
	if cfg.memoryBytes > 0 && bOpt > cfg.memoryBytes/2 {
		bOpt = cfg.memoryBytes / 2
	}
	nt := bOpt / int64(bufBytes)
	// k = F/(nt·B′) must stay ≤ maxK; widen the partitioning if needed.
	for nt == 0 || cfg.flashBytes/(nt*int64(bufBytes)) > int64(maxK) {
		if nt == 0 {
			nt = 1
			continue
		}
		nt *= 2
	}
	partitionBits := uint(bits.Len64(uint64(nt)) - 1) // floor(log2)
	nt = 1 << partitionBits
	k := int(cfg.flashBytes / (nt * int64(bufBytes)))
	if k < 1 {
		k = 1
	}
	if k > maxK {
		k = maxK
	}

	fbe := cfg.filterBitsPerEntry
	if fbe == 0 {
		if cfg.memoryBytes == 0 {
			fbe = 16 // the paper's candidate configuration
		} else {
			bloomBytes := cfg.memoryBytes - nt*int64(bufBytes)
			if bloomBytes <= 0 {
				return core.Config{}, fmt.Errorf(
					"clam: memory budget %d leaves no room for Bloom filters after %d of buffers",
					cfg.memoryBytes, nt*int64(bufBytes))
			}
			// Each of a filter's m bits costs one bit per incarnation: a
			// row of k bits, held in a lane of bitslice.LaneBits(k) bits
			// in the bit-sliced bank.
			rowBits := int64(bitslice.LaneBits(k))
			entries := nt * rowBits * int64(bufBytes/32) // n′ × row bits, all tables
			fbe = int(bloomBytes * 8 / entries)
			if fbe < 1 {
				fbe = 1
			}
			if fbe > 64 {
				fbe = 64
			}
		}
	}
	seed := cfg.seed
	if seed == 0 {
		seed = 1
	}
	return core.Config{
		Device:             dev,
		Clock:              clock,
		PartitionBits:      partitionBits,
		BufferBytes:        bufBytes,
		NumIncarnations:    k,
		FilterBitsPerEntry: fbe,
		FilterHashes:       0,
		Policy:             cfg.policy,
		Retain:             cfg.retain,
		Seed:               seed,
	}, nil
}

// --- locked chunk operations ---
//
// The router drives a CLAM through the seven calls below, each one chunk
// of at most WithBatchChunk keys run under the lock as one core
// batched-pipeline call. A single-key Store call is a chunk of one.
//
// Latency accounting: a chunk's virtual elapsed time is spread evenly over
// its keys, so the insert, lookup and delete histograms record amortized
// per-key latency — flush costs no longer land on one unlucky insert — and
// their counts stay equal to the number of operations performed.

// forChunks calls op on [lo, hi) cut into consecutive ranges of at most
// chunk items, the first starting at lo, and checks ctx before each range.
// It stops at the first error, returning it (or ctx.Err()). The router runs
// every shard's part of a batch through here.
func forChunks(ctx context.Context, lo, hi, chunk int, op func(lo, hi int) error) error {
	for ; lo < hi; lo += chunk {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := op(lo, min(lo+chunk, hi)); err != nil {
			return err
		}
	}
	return nil
}

// putBatchU64Chunk is one locked batched-insert call on the inline fast
// path (see internal/core: in-order buffer application with deferred CPU
// charges, then every triggered flush issued as one address-sorted
// overlapped write submission).
func (c *CLAM) putBatchU64Chunk(keys, values []uint64) error {
	if len(keys) == 0 {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.clock.StartWatch()
	if err := c.bh.InsertBatch(keys, values); err != nil {
		return err
	}
	c.insert.ObserveN(w.Elapsed()/time.Duration(len(keys)), len(keys))
	return nil
}

// getBatchU64Into is one locked batched-lookup call (see internal/core:
// in-memory phase, coalesced overlapped flash phase, newest-first
// resolution); results must have len(keys).
func (c *CLAM) getBatchU64Into(keys []uint64, results []core.LookupResult) error {
	if len(keys) == 0 {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.clock.StartWatch()
	if err := c.bh.LookupBatch(keys, results); err != nil {
		return err
	}
	c.lookup.ObserveN(w.Elapsed()/time.Duration(len(keys)), len(keys))
	return nil
}

// deleteBatchU64Chunk is one locked batched-delete call. Deletes perform
// no I/O.
func (c *CLAM) deleteBatchU64Chunk(keys []uint64) error {
	if len(keys) == 0 {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.clock.StartWatch()
	if err := c.bh.DeleteBatch(keys); err != nil {
		return err
	}
	c.del.ObserveN(w.Elapsed()/time.Duration(len(keys)), len(keys))
	return nil
}

// markDeadChunk does a chunk's value-log space accounting: the first
// occurrence of a fingerprint may kill a pre-chunk record still in the
// buffer; a later occurrence in a put chunk kills the record the previous
// occurrence wrote (ptrs[i] is occurrence i's new pointer; nil for a delete
// chunk, whose repeats kill nothing). Repeats are found through a
// linear-probing table of at least twice the chunk's size, indexed by the
// fingerprint's low bits, so the cost follows this chunk, not the largest
// one seen.
func (c *CLAM) markDeadChunk(fps, ptrs []uint64) {
	size := 1 << bits.Len(uint(2*len(fps)-1))
	if cap(c.deadSeen) < size {
		c.deadSeen = make([]int32, size)
	}
	seen := c.deadSeen[:size] // index+1 of a fingerprint's latest occurrence
	clear(seen)
	mask := uint64(size - 1)
	for i, fp := range fps {
		j := fp & mask
		for seen[j] != 0 && fps[seen[j]-1] != fp {
			j = (j + 1) & mask
		}
		if prev := seen[j] - 1; prev < 0 {
			c.markDeadIfBuffered(fp)
		} else if ptrs != nil {
			if off, n, ok := core.DecodeValuePtr(ptrs[prev]); ok {
				c.vlog.MarkDead(off, n)
			}
		}
		seen[j] = int32(i + 1)
	}
}

// markDeadIfBuffered moves fp's value-log record to the dead side of the
// log's space accounting if its pointer is still in the DRAM buffer — the
// only place an overwrite or delete is observable without extra probes.
// Records whose pointer already flushed to an incarnation die silently and
// are only accounted when the log laps them (ValueLogStats.LappedBytes).
// On a store mixing the key families, an inline U64 value whose bit 63 is
// set and whose key collides with fp decodes as a bogus pointer here; the
// mis-debit is bounded by MarkDead's range and region clamping, the same
// approximation class as silent deaths. Accounting only: no counters, CPU
// charges or I/O are touched.
func (c *CLAM) markDeadIfBuffered(fp uint64) {
	if c.vlog == nil {
		return
	}
	if old, ok := c.bh.BufferedValue(fp); ok {
		if off, n, ok := core.DecodeValuePtr(old); ok {
			c.vlog.MarkDead(off, n)
		}
	}
}

// putBatchRecords applies one chunk of byte puts under the lock: the
// chunk's records land in the value log as one tail-buffered multi-record
// append (its full pages reach the device as one sequential submission),
// dead-record accounting runs, then the fingerprints and record pointers
// go through one core insert batch. Record offsets depend only on append
// order, so the final state does not depend on how keys are chunked.
func (c *CLAM) putBatchRecords(fps []uint64, keys, values [][]byte) error {
	if len(fps) == 0 {
		return nil
	}
	if c.vlog == nil {
		return ErrNoValueLog
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.clock.StartWatch()
	if cap(c.putOffs) < len(fps) {
		c.putOffs = make([]int64, len(fps))
		c.putNs = make([]int, len(fps))
		c.putPtrs = make([]uint64, len(fps))
	}
	offs, ns, ptrs := c.putOffs[:len(fps)], c.putNs[:len(fps)], c.putPtrs[:len(fps)]
	if err := c.vlog.AppendBatch(keys, values, offs, ns); err != nil {
		return err
	}
	for i := range fps {
		ptr, ok := core.EncodeValuePtr(offs[i], ns[i])
		if !ok {
			return fmt.Errorf("clam: value-log pointer (%d, %d) not encodable", offs[i], ns[i])
		}
		ptrs[i] = ptr
	}
	c.markDeadChunk(fps, ptrs)
	if err := c.bh.InsertBatch(fps, ptrs); err != nil {
		return err
	}
	c.insert.ObserveN(w.Elapsed()/time.Duration(len(fps)), len(fps))
	return nil
}

// getBatchRecords resolves one chunk under the lock: batched index lookup,
// then one batched value-log read for every key that resolved to a record
// pointer, then per-key verification against the full key bytes. It sets
// values[i] and found[i] only for keys it finds.
func (c *CLAM) getBatchRecords(fps []uint64, keys [][]byte, values [][]byte, found []bool) error {
	if len(fps) == 0 {
		return nil
	}
	if c.vlog == nil {
		return ErrNoValueLog
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.clock.StartWatch()
	if cap(c.batchRes) < len(fps) {
		c.batchRes = make([]core.LookupResult, len(fps))
	}
	results := c.batchRes[:len(fps)]
	if err := c.bh.LookupBatch(fps, results); err != nil {
		return err
	}
	reqs := c.batchReq[:0]
	idxs := c.batchIdx[:0]
	for i := range results {
		if off, n, ok := results[i].ValuePointer(); ok {
			reqs = append(reqs, storage.ValueReadReq{Off: off, N: n})
			idxs = append(idxs, i)
		}
	}
	c.batchReq, c.batchIdx = reqs, idxs
	if err := c.vlog.ReadRecordsBatch(reqs); err != nil {
		return err
	}
	for j, req := range reqs {
		i := idxs[j]
		if req.Rec == nil {
			continue
		}
		if v, ok := storage.VerifyRecord(req.Rec, keys[i]); ok {
			values[i] = bytes.Clone(v)
			found[i] = true
		}
	}
	c.lookup.ObserveN(w.Elapsed()/time.Duration(len(fps)), len(fps))
	return nil
}

// deleteBatchFPs applies one chunk of byte-key deletes under the lock,
// accounting each fingerprint's buffered record dead once.
func (c *CLAM) deleteBatchFPs(fps []uint64) error {
	if len(fps) == 0 {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.clock.StartWatch()
	c.markDeadChunk(fps, nil)
	if err := c.bh.DeleteBatch(fps); err != nil {
		return err
	}
	c.del.ObserveN(w.Elapsed()/time.Duration(len(fps)), len(fps))
	return nil
}

// containsBatchFPs resolves one chunk of existence probes under the lock,
// stopping at the index hit: no value-log record is read (see
// Store.Contains).
func (c *CLAM) containsBatchFPs(fps []uint64, found []bool) error {
	if len(fps) == 0 {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.clock.StartWatch()
	if cap(c.batchRes) < len(fps) {
		c.batchRes = make([]core.LookupResult, len(fps))
	}
	results := c.batchRes[:len(fps)]
	if err := c.bh.LookupBatch(fps, results); err != nil {
		return err
	}
	for i := range results {
		_, _, ok := results[i].ValuePointer()
		found[i] = ok
	}
	c.lookup.ObserveN(w.Elapsed()/time.Duration(len(fps)), len(fps))
	return nil
}

// --- maintenance and introspection ---

// flush forces the CLAM's buffered entries to flash: one shard's step of
// Store.Flush.
func (c *CLAM) flush() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bh.Flush()
}

// Clock returns the virtual clock (for building workloads that pace
// arrivals in virtual time).
func (c *CLAM) Clock() *vclock.Clock { return c.clock }

// Device returns the underlying index storage device.
func (c *CLAM) Device() storage.Device { return c.dev }

// ValueDevice returns the value-log device, or nil when the store has no
// value log.
func (c *CLAM) ValueDevice() storage.Device {
	if c.vlog == nil {
		return nil
	}
	return c.vlog.Device()
}

// Core exposes the underlying BufferHash for the experiment harness.
// Callers must not use it concurrently with CLAM methods.
func (c *CLAM) Core() *core.BufferHash { return c.bh }

// Stats is a point-in-time summary of a Store's behaviour.
type Stats struct {
	Core   core.Stats
	Device storage.Counters
	// ValueDevice counts the value log's own I/O (zero when the store has
	// no value log or the byte API was never used).
	ValueDevice storage.Counters
	// ValueLog counts record appends and log wraps.
	ValueLog storage.ValueLogStats

	InsertLatency metrics.Summary
	LookupLatency metrics.Summary
	DeleteLatency metrics.Summary
	// WriteLatency distributes the per-request virtual service time of the
	// slow-storage write stream (incarnation image flushes and value-log
	// page appends, on kind-opened stores): an image written alone pays one
	// full write, while the images of one batched insert share command
	// setup and overlap across the device's queue lanes, each request
	// recording its share of the submission. Empty on WithCustomDevice
	// stores.
	WriteLatency metrics.Summary

	Memory core.MemoryFootprint

	// Deprecated: Router is always zero; it is kept so code that reads
	// Router.CoopLanes still compiles.
	Router RouterStats
}

// RouterStats once reported the batch router's cooperative co-worker
// occupancy per shard.
type RouterStats struct {
	// Deprecated: the cooperative phase-A co-workers were removed, so
	// CoopLanes is always nil.
	CoopLanes []uint64
}

// snapshot adds the CLAM's counters and memory footprint into st and
// merges its insert, lookup, delete and write latency histograms into h,
// under its lock: one shard's step of Store.Stats.
func (c *CLAM) snapshot(st *Stats, h *[4]metrics.Histogram) {
	c.mu.Lock()
	defer c.mu.Unlock()
	st.Core.Merge(c.bh.Stats())
	st.Device.Add(c.dev.Counters())
	st.Memory.Add(c.bh.MemoryFootprint())
	if c.vlog != nil {
		st.ValueDevice.Add(c.vlog.Device().Counters())
		st.ValueLog.Add(c.vlog.Stats())
	}
	for i, src := range [4]*metrics.Histogram{&c.insert, &c.lookup, &c.del, &c.write} {
		h[i].Merge(src)
	}
}

// resetMetrics clears the CLAM's latency histograms and core counters: one
// shard's step of Store.ResetMetrics.
func (c *CLAM) resetMetrics() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.insert.Reset()
	c.lookup.Reset()
	c.del.Reset()
	c.write.Reset()
	c.bh.ResetStats()
}

// elapse advances the CLAM's virtual clock by d: one shard's step of
// Store.Elapse.
func (c *CLAM) elapse(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.clock.Advance(d)
}
