package core

import (
	"fmt"
	"time"

	"repro/internal/bitslice"
	"repro/internal/cuckoo"
	"repro/internal/hashutil"
	"repro/internal/storage"
)

// LookupResult reports the outcome of a lookup and its flash I/O footprint,
// the quantity behind Table 2 of the paper.
type LookupResult struct {
	Value uint64
	Found bool
	// FlashReads is the number of incarnation pages read from flash.
	FlashReads int
	// Spurious counts reads that found nothing (Bloom false positives).
	Spurious int
}

// BufferHash is the partitioned data structure of §5.2: 2^k1 super tables,
// each owning a buffer, k incarnations and Bloom filters. Not safe for
// concurrent use.
type BufferHash struct {
	cfg    Config
	layout Layout
	parts  []*superTable
	params []cuckoo.Params // per-partition cuckoo parameters
	stats  Stats

	// Shared-log layout state (§5.2: "uses the entire SSD as a single
	// circular list"): slot i holds the image written at seq slotSeq[i] by
	// partition slotOwner[i].
	slotOwner []int32
	slotSeq   []uint64
	nextSlot  int64
	seq       uint64

	imageSize int
	imgPool   [][]byte // free image-sized buffers (flush serialization, eviction scans)
	batch     batchScratch

	// staged holds every flushed image not yet on the device. A flush
	// serializes its image here; the op that triggered it submits the lot
	// as one address-sorted overlapped WriteBatch submission. Until a
	// submission succeeds, the staged buffer is the readable copy of its
	// incarnation: readImage and LookupBatch serve its addresses from it.
	staged    []stagedWrite
	stageReqs []storage.WriteReq // flushStaged submission scratch

	// cpuDebt accrues chargeCPU costs; every op lands it on the clock in
	// one advance (settleCPUDebt) before its device submission. It is a
	// plain field: only the goroutine running the op touches it.
	cpuDebt time.Duration

	// routeSeed is Mix64(cfg.Seed), the seed half of routeHash, mixed once.
	routeSeed uint64
}

// stagedWrite is one incarnation image awaiting its device write.
type stagedWrite struct {
	buf  []byte
	addr int64
}

// New builds a BufferHash over the configured device. The configuration is
// validated eagerly.
func New(cfg Config) (*BufferHash, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	b := &BufferHash{
		cfg:       cfg,
		layout:    cfg.layout(),
		imageSize: cfg.BufferBytes,
		routeSeed: hashutil.Mix64(cfg.Seed),
	}
	nt := cfg.NumSuperTables()
	b.params = make([]cuckoo.Params, nt)
	pageSlots := cfg.Device.Geometry().PageSize / hashutil.EntrySize
	for i := range b.params {
		b.params[i] = cuckoo.Params{
			NSlots:    cfg.BufferBytes / hashutil.EntrySize,
			PageSlots: pageSlots,
			Seed:      hashutil.Hash64Seed(uint64(i), cfg.Seed),
		}
		if err := b.params[i].Validate(); err != nil {
			return nil, err
		}
	}
	b.parts = make([]*superTable, nt)
	for i := range b.parts {
		b.parts[i] = newSuperTable(b, i)
	}
	if b.layout == SharedLog {
		slots := int64(nt) * int64(cfg.NumIncarnations)
		b.slotOwner = make([]int32, slots)
		b.slotSeq = make([]uint64, slots)
		for i := range b.slotOwner {
			b.slotOwner[i] = -1
		}
	}
	return b, nil
}

// Config returns the (validated) configuration.
func (b *BufferHash) Config() Config { return b.cfg }

// tableParams returns the cuckoo parameters of partition idx.
func (b *BufferHash) tableParams(idx int) cuckoo.Params { return b.params[idx] }

// newSliceBank builds the bit-sliced Bloom bank for one super table.
func (b *BufferHash) newSliceBank(m uint64, h int) filterBank {
	return bitslice.NewBank(m, b.cfg.NumIncarnations, h)
}

// maxPooledImages caps how many free image buffers are retained between
// batches; beyond that, buffers are dropped to the garbage collector so a
// pathological cascade's high-water mark is not held forever.
const maxPooledImages = 16

// acquireImage returns an image-sized buffer from the pool (or a fresh
// one). Flush serialization and eviction scans each own a distinct buffer
// until they release it, so a flush can never alias a scan in progress.
func (b *BufferHash) acquireImage() []byte {
	if n := len(b.imgPool); n > 0 {
		img := b.imgPool[n-1]
		b.imgPool = b.imgPool[:n-1]
		return img
	}
	return make([]byte, b.imageSize)
}

// releaseImage returns an image buffer to the pool.
func (b *BufferHash) releaseImage(img []byte) {
	if len(b.imgPool) < maxPooledImages {
		b.imgPool = append(b.imgPool, img)
	}
}

// stageWrite queues an incarnation image for the op's device submission.
// A second image staged at the same address replaces the first: the slot
// was recycled, so the earlier image is dead, nothing can read it anymore,
// and on raw flash the slot's erase has already been issued for the newer
// image. This also drops a pending image from a failed submission once its
// slot is reused.
func (b *BufferHash) stageWrite(img []byte, addr int64) {
	for i := range b.staged {
		if b.staged[i].addr == addr {
			b.releaseImage(b.staged[i].buf)
			b.staged[i].buf = img
			return
		}
	}
	b.staged = append(b.staged, stagedWrite{buf: img, addr: addr})
}

// stagedImage returns the pending image that holds device address addr,
// or nil if no staged image covers it.
func (b *BufferHash) stagedImage(addr int64) (img []byte, start int64) {
	for _, s := range b.staged {
		if addr >= s.addr && addr < s.addr+int64(len(s.buf)) {
			return s.buf, s.addr
		}
	}
	return nil, 0
}

// flushStaged issues every staged image as one address-sorted overlapped
// WriteBatch submission and recycles the written buffers.
//
// The failure rule: a WriteBatch that fails writes nothing (see
// storage.BatchWriter), so every image stays in staged as the readable
// copy of its incarnation. The failing op returns the error with its
// entries applied and readable, and the next InsertBatch or Flush submits
// the staged images again.
func (b *BufferHash) flushStaged() error {
	if len(b.staged) == 0 {
		return nil
	}
	reqs := b.stageReqs[:0]
	for _, s := range b.staged {
		reqs = append(reqs, storage.WriteReq{P: s.buf, Off: s.addr})
	}
	_, err := b.cfg.Device.WriteBatch(reqs)
	clear(reqs)
	b.stageReqs = reqs
	if err != nil {
		return fmt.Errorf("core: batched incarnation write: %w", err)
	}
	for _, s := range b.staged {
		b.releaseImage(s.buf)
	}
	clear(b.staged)
	b.staged = b.staged[:0]
	return nil
}

// chargeCPU accrues a CPU cost into cpuDebt, ignoring non-positive costs.
// Every op settles the debt before its device submission, so the clock
// lands on the same virtual total whatever the batch size, in far fewer
// advances.
func (b *BufferHash) chargeCPU(d time.Duration) {
	if d > 0 {
		b.cpuDebt += d
	}
}

// settleCPUDebt lands the accumulated CPU charges on the clock in one
// advance.
func (b *BufferHash) settleCPUDebt() {
	if d := b.cpuDebt; d > 0 {
		b.cpuDebt = 0
		b.cfg.Clock.Advance(d)
	}
}

// routeHash is the pure half of route: it hashes a user key to (partition
// index, in-partition key) without touching the structure. The first k1
// bits of the hash select the partition; the rest form the in-partition key
// (§5.2), normalized to be non-zero for the cuckoo tables.
func (b *BufferHash) routeHash(key uint64) (part int, kh uint64) {
	h := hashutil.Mix64(key ^ b.routeSeed)
	p, rest := hashutil.Split(h, b.cfg.PartitionBits)
	if rest == 0 {
		rest = 1
	}
	return int(p), rest
}

// route hashes a user key to (super table, in-partition key).
func (b *BufferHash) route(key uint64) (*superTable, uint64) {
	p, kh := b.routeHash(key)
	return b.parts[p], kh
}

// Insert adds or updates a (key, value) mapping: an InsertBatch of one.
func (b *BufferHash) Insert(key, value uint64) error {
	return b.InsertBatch([]uint64{key}, []uint64{value})
}

// Update is insertion with lazy-update semantics (§5.1.1): the new value
// shadows older versions because lookups probe incarnations newest-first.
// It is an alias of Insert; both are provided to mirror the paper's API.
func (b *BufferHash) Update(key, value uint64) error {
	return b.Insert(key, value)
}

// Delete lazily removes a key (§5.1.1): it is dropped from the buffer if
// still there and recorded in the in-memory delete list; flash space is
// reclaimed at eviction time. It is a DeleteBatch of one.
func (b *BufferHash) Delete(key uint64) error {
	return b.DeleteBatch([]uint64{key})
}

// Lookup returns the latest value for key: a LookupBatch of one.
func (b *BufferHash) Lookup(key uint64) (LookupResult, error) {
	var res [1]LookupResult
	err := b.LookupBatch([]uint64{key}, res[:])
	return res[0], err
}

// Flush forces every super table with buffered entries to write its buffer
// to flash, and submits any images a failed write left pending. Each
// flushed table settles its CPU cost and submits its images before the
// next table flushes. Mainly useful in tests and when quiescing.
func (b *BufferHash) Flush() error {
	for _, st := range b.parts {
		if st.buf.Len() == 0 {
			continue
		}
		err := st.flush()
		b.settleCPUDebt()
		if werr := b.flushStaged(); err == nil {
			err = werr
		}
		if err != nil {
			return err
		}
	}
	return b.flushStaged()
}

// probeAddr returns the device address and length of the single flash page
// that can hold kh within an incarnation of st (§5.1.1); every lookup's
// probe targets come from here.
func (b *BufferHash) probeAddr(st *superTable, inc incarnation, kh uint64) (addr int64, n int) {
	off, n := b.params[st.idx].PageByteRange(st.buf.PageIndex(kh))
	return inc.addr + int64(off), n
}

// readImage reads a whole incarnation image (partial-discard scan path)
// into a pooled buffer owned by the caller, who returns it with
// releaseImage when the scan is done. Each call gets a distinct buffer, so
// an image stays valid across interleaved flushes and further reads. An
// address whose image is still staged is served from the staged buffer —
// the bytes the device will hold once the image is written — without a
// device read.
func (b *BufferHash) readImage(addr int64) ([]byte, error) {
	img := b.acquireImage()
	if staged, start := b.stagedImage(addr); staged != nil && start == addr {
		copy(img, staged)
		return img, nil
	}
	if _, err := b.cfg.Device.ReadAt(img, addr); err != nil {
		b.releaseImage(img)
		return nil, fmt.Errorf("core: image read: %w", err)
	}
	return img, nil
}

// placeImage allocates the flash address for a new incarnation of st.
func (b *BufferHash) placeImage(st *superTable) (addr int64, seq uint64, err error) {
	b.seq++
	switch b.layout {
	case SharedLog:
		slot := b.nextSlot
		b.nextSlot = (b.nextSlot + 1) % int64(len(b.slotOwner))
		// Reclaim the slot from its previous owner: global FIFO eviction.
		if prev := b.slotOwner[slot]; prev >= 0 {
			b.parts[prev].evictOldestExternal(b.slotSeq[slot])
		}
		b.slotOwner[slot] = int32(st.idx)
		b.slotSeq[slot] = b.seq
		return slot * int64(b.imageSize), b.seq, nil
	case PartitionedRegions:
		k := int64(b.cfg.NumIncarnations)
		region := int64(st.idx) * k * int64(b.imageSize)
		slot := int64(st.flushGen) % k
		addr = region + slot*int64(b.imageSize)
		// Recycle the region circularly. Raw flash requires an erase
		// before rewrite once the ring has wrapped; SSDs and disks are
		// simply overwritten in place (the paper's file-per-partition
		// implementation, §7.1).
		if st.flushGen >= uint64(k) {
			if eraser, ok := b.cfg.Device.(storage.Eraser); ok {
				if _, err := eraser.Erase(addr, int64(b.imageSize)); err != nil {
					return 0, 0, fmt.Errorf("core: region erase: %w", err)
				}
			}
		}
		return addr, b.seq, nil
	default:
		return 0, 0, fmt.Errorf("core: unknown layout %d", b.layout)
	}
}

// Len returns the total number of entries currently buffered in DRAM (the
// in-flash population is bounded by super tables × k × entries/incarnation).
func (b *BufferHash) Len() int {
	n := 0
	for _, st := range b.parts {
		n += st.buf.Len()
	}
	return n
}

// MemoryFootprint reports the DRAM consumed by the structure, split by
// component (used to validate the §6.4 memory budget).
type MemoryFootprint struct {
	BufferBytes     int64 // all cuckoo buffers, plus images awaiting their device write
	BloomBytes      int64 // all filter banks: incarnation rows plus staging filters
	DeleteListBytes int64 // approximate
	MetadataBytes   int64 // incarnation bookkeeping
}

// Total returns the footprint sum.
func (m MemoryFootprint) Total() int64 {
	return m.BufferBytes + m.BloomBytes + m.DeleteListBytes + m.MetadataBytes
}

// Add accumulates another footprint into m (sharded aggregation).
func (m *MemoryFootprint) Add(o MemoryFootprint) {
	m.BufferBytes += o.BufferBytes
	m.BloomBytes += o.BloomBytes
	m.DeleteListBytes += o.DeleteListBytes
	m.MetadataBytes += o.MetadataBytes
}

// MemoryFootprint computes the current DRAM footprint.
func (b *BufferHash) MemoryFootprint() MemoryFootprint {
	var m MemoryFootprint
	for _, st := range b.parts {
		m.BufferBytes += int64(b.cfg.BufferBytes)
		if st.bank != nil {
			m.BloomBytes += int64(st.bank.MemoryBits() / 8)
		}
		m.DeleteListBytes += int64(len(st.deleteList)) * 16
		m.MetadataBytes += int64(len(st.incs)) * 16
	}
	m.BufferBytes += int64(len(b.staged)) * int64(b.imageSize)
	return m
}

// Stats returns a snapshot of operation counters.
func (b *BufferHash) Stats() Stats { return b.stats }

// ResetStats zeroes the counters (latency histograms are owned by callers).
func (b *BufferHash) ResetStats() { b.stats = Stats{} }
