// Package core implements BufferHash, the paper's primary contribution
// (§5): a flash-friendly hash table built from partitioned super tables,
// each holding an in-DRAM cuckoo-hash buffer, a circular table of k in-flash
// incarnations, and per-incarnation Bloom filters organized bit-sliced with
// a sliding window.
//
// The package operates in virtual time: CPU costs and device I/O advance
// the configured vclock.Clock, so callers measure operation latencies by
// reading the clock around calls (the clam package does exactly that).
//
// BufferHash is not safe for concurrent use; the clam facade serializes
// access. This mirrors the paper's design point that flash I/Os are
// blocking operations (§5.2).
//
// Every operation runs one pipeline, and a single-key call is a batch of
// one. LookupBatch answers every key's in-memory portion with zero I/O
// (phase A), gathers each probing round's page reads, dedupes same-page
// keys, sorts them by device address and submits them through
// storage.BatchReader so their virtual latency overlaps across the
// device's queue lanes (phase B), and resolves pages newest-first, stopping
// on a hit (phase C). See batch.go. InsertBatch applies its keys in input
// order with flush writes staged into pooled image buffers, then issues
// them as one address-sorted storage.BatchWriter submission. See
// insertbatch.go. Results and counters do not depend on how keys are
// batched; only virtual time (and the physical I/O count) improves with
// larger batches.
//
// A flush image whose device write fails stays staged and readable until a
// later InsertBatch or Flush writes it, so a failed write never exposes
// the older bytes its slot held.
package core

import (
	"fmt"
	"time"

	"repro/internal/bloom"
	"repro/internal/hashutil"
	"repro/internal/storage"
	"repro/internal/vclock"
)

// EvictionPolicy selects what happens to the oldest incarnation when space
// is needed (§5.1.2).
type EvictionPolicy int

// Eviction policies.
const (
	// FIFO evicts the oldest incarnation wholesale (full discard). This is
	// the paper's default and the policy commercial WAN optimizers use.
	FIFO EvictionPolicy = iota
	// LRU is FIFO plus re-insertion of items on every flash hit, so
	// recently used items survive in newer incarnations.
	LRU
	// UpdateBased is partial discard retaining only live entries: those
	// not deleted and not superseded by a newer version (checked against
	// the delete list and the in-memory Bloom filters).
	UpdateBased
	// PriorityBased is partial discard retaining entries the Retain
	// callback approves (e.g. priority above a threshold).
	PriorityBased
)

// String returns the policy name.
func (p EvictionPolicy) String() string {
	switch p {
	case FIFO:
		return "fifo"
	case LRU:
		return "lru"
	case UpdateBased:
		return "update"
	case PriorityBased:
		return "priority"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// Layout is how incarnations are placed on the device (§5.2). The store
// derives it from the device and the eviction policy (Config.layout).
type Layout int

// Layouts.
const (
	// SharedLog writes incarnations from all super tables sequentially
	// into one device-wide circular log, the paper's SSD strategy: it
	// avoids interleaving per-partition write streams, which SSD FTLs
	// handle poorly. Eviction is FIFO over the whole key space.
	SharedLog Layout = iota
	// PartitionedRegions statically assigns each super table a circular
	// region, the paper's flash-chip strategy; erase blocks are recycled
	// within the region.
	PartitionedRegions
)

// CPUCosts models the in-memory computation costs charged to the virtual
// clock. Defaults are calibrated so that the paper's headline averages
// (≈0.006 ms inserts, ≈0.06 ms lookups at 40% LSR on the Intel SSD, §7.2.1)
// are reproduced. The charges follow the paper's operations, not the
// implementation's schedule: BloomAdd is charged on every insert, as the
// paper sets a key's staging bits, although the store sets them in one
// pass over the buffer when it flushes.
type CPUCosts struct {
	BufferInsert    time.Duration // cuckoo insert incl. partition hashing
	BufferLookup    time.Duration // cuckoo get + delete-list check
	BloomAdd        time.Duration // staging filter update, charged per insert (see above)
	BloomQuery      time.Duration // bit-sliced query over all incarnations
	BloomQueryNaive time.Duration // query without bit-slicing (§7.3.1 ablation)
	FlushSerialize  time.Duration // serialize + reset one buffer
	EvictScanEntry  time.Duration // per-entry partial-discard scan work
}

// DefaultCPUCosts returns the calibrated cost model.
func DefaultCPUCosts() CPUCosts {
	return CPUCosts{
		BufferInsert:    3 * time.Microsecond,
		BufferLookup:    1500 * time.Nanosecond,
		BloomAdd:        300 * time.Nanosecond,
		BloomQuery:      500 * time.Nanosecond,
		BloomQueryNaive: 2500 * time.Nanosecond,
		FlushSerialize:  1500 * time.Microsecond,
		EvictScanEntry:  150 * time.Nanosecond,
	}
}

// Config assembles a BufferHash instance.
type Config struct {
	// Device stores the incarnation tables. Its capacity must hold
	// NumSuperTables() × NumIncarnations images of BufferBytes each.
	Device storage.Device
	// Clock is the shared virtual clock.
	Clock *vclock.Clock

	// PartitionBits is k1: the number of super tables is 2^k1 (§5.2).
	PartitionBits uint
	// BufferBytes is B′, the per-super-table buffer size. It must be a
	// multiple of the device page size; the paper's default is 128 KB
	// (§6.4: match the flash block size).
	BufferBytes int
	// NumIncarnations is k, the incarnations per super table; the paper's
	// configuration yields k = F/B = 16 (§7.1.1).
	NumIncarnations int

	// FilterBitsPerEntry sizes each incarnation's Bloom filter as
	// FilterBitsPerEntry × (entries per buffer). 16 bits/entry matches the
	// paper's candidate configuration. Ignored if DisableBloom.
	FilterBitsPerEntry int
	// FilterHashes overrides the number of hash functions; 0 = optimal
	// h = (m/n)·ln2 (§6.2).
	FilterHashes int

	// Policy is the eviction policy; Retain is consulted by
	// PriorityBased eviction (return true to keep the entry).
	Policy EvictionPolicy
	Retain func(key, value uint64) bool

	// Seed makes hashing deterministic.
	Seed uint64

	// CPU is the in-memory cost model; zero value = DefaultCPUCosts.
	CPU CPUCosts

	// DisableBloom turns off Bloom filters (§7.3.1 ablation): every live
	// incarnation is probed until the key is found.
	DisableBloom bool
	// DisableBitslice replaces the bit-sliced bank with k+1 separate
	// filters (§7.3.1 ablation); answers are identical, CPU cost higher.
	DisableBitslice bool
}

// NumSuperTables returns 2^PartitionBits.
func (c Config) NumSuperTables() int { return 1 << c.PartitionBits }

// EntriesPerBuffer returns n′, the entry capacity of one buffer at the 50%
// cuckoo utilization cap.
func (c Config) EntriesPerBuffer() int {
	return c.BufferBytes / hashutil.EntrySize / 2
}

// FilterBits returns m′, the Bloom bits per incarnation filter.
func (c Config) FilterBits() uint64 {
	return uint64(c.FilterBitsPerEntry) * uint64(c.EntriesPerBuffer())
}

// filterHashes resolves the hash count.
func (c Config) filterHashes() int {
	if c.FilterHashes > 0 {
		return c.FilterHashes
	}
	return bloom.OptimalHashes(c.FilterBits(), c.EntriesPerBuffer())
}

func (c *Config) validate() error {
	if c.Device == nil || c.Clock == nil {
		return fmt.Errorf("core: Device and Clock are required")
	}
	if c.PartitionBits > 24 {
		return fmt.Errorf("core: PartitionBits %d too large", c.PartitionBits)
	}
	if c.NumIncarnations < 1 || c.NumIncarnations > 64 {
		return fmt.Errorf("core: NumIncarnations %d out of [1,64]", c.NumIncarnations)
	}
	g := c.Device.Geometry()
	if c.BufferBytes <= 0 || c.BufferBytes%g.PageSize != 0 {
		return fmt.Errorf("core: BufferBytes %d must be a positive multiple of the device page size %d",
			c.BufferBytes, g.PageSize)
	}
	if !c.DisableBloom && c.FilterBitsPerEntry <= 0 {
		return fmt.Errorf("core: FilterBitsPerEntry must be positive (got %d)", c.FilterBitsPerEntry)
	}
	if c.Policy < FIFO || c.Policy > PriorityBased {
		return fmt.Errorf("core: unknown eviction policy %v", c.Policy)
	}
	if c.Policy == PriorityBased && c.Retain == nil {
		return fmt.Errorf("core: PriorityBased eviction requires a Retain callback")
	}
	// LookupBatch packs a probe's page number next to a pending index in
	// one 64-bit word, which caps the device at about 32 PiB of 2 KiB pages.
	probe := int64(g.PageSize / hashutil.EntrySize * hashutil.EntrySize)
	if probe > 0 && g.Capacity/probe >= 1<<(64-pendBits) {
		return fmt.Errorf("core: device capacity %d overflows the lookup probe word at %d B pages",
			g.Capacity, probe)
	}
	need := int64(c.NumSuperTables()) * int64(c.NumIncarnations) * int64(c.BufferBytes)
	if need > g.Capacity {
		return fmt.Errorf("core: device capacity %d < required %d (%d super tables × %d incarnations × %d B)",
			g.Capacity, need, c.NumSuperTables(), c.NumIncarnations, c.BufferBytes)
	}
	_, erasable := c.Device.(storage.Eraser)
	if erasable && c.layout() == PartitionedRegions && g.BlockSize > 0 && c.BufferBytes%g.BlockSize != 0 {
		// Sub-block incarnations would force the C3 valid-page copying of
		// §6.1; the paper's own tuning (§6.4) concludes the buffer should
		// match the erase block, so the implementation requires it and the
		// sub-block regime is covered analytically by costmodel.
		return fmt.Errorf("core: on raw flash, BufferBytes %d must be a multiple of the erase block %d",
			c.BufferBytes, g.BlockSize)
	}
	if c.CPU == (CPUCosts{}) {
		c.CPU = DefaultCPUCosts()
	}
	return nil
}

// layout picks the device placement. Raw flash chips always use
// per-super-table regions. On SSDs and disks, FIFO/LRU use the shared circular log of §5.2;
// the partial-discard policies use per-partition rings, because their
// eviction scan must run in the evicting super table — this matches the
// paper's actual implementation, which kept "each partition in a separate
// file with all its incarnations" (§7.1).
func (c Config) layout() Layout {
	if _, ok := c.Device.(storage.Eraser); ok {
		return PartitionedRegions
	}
	if c.Policy == UpdateBased || c.Policy == PriorityBased {
		return PartitionedRegions
	}
	return SharedLog
}
