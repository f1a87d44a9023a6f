package core

import "fmt"

// The insert pipeline — the write-side twin of the lookup pipeline in
// batch.go. Every insert runs through it, a single-key Insert as a batch of
// one, in three phases:
//
//	A (apply):   every key's buffer update — delete-list revival and
//	             cuckoo insert — and every flush's *bookkeeping* (eviction
//	             cascades, slot placement, Bloom staging of the buffer's
//	             keys in one pass, filter-bank rotation, buffer reset,
//	             counters) run in input order, with CPU charges accrued into
//	             one deferred clock advance; a key's Bloom staging add is
//	             charged per insert but set at its buffer's flush. A
//	             flush's device write is withheld: the image is serialized
//	             into a pooled buffer and staged. A duplicate key still in
//	             the buffer takes the same insert path: the cuckoo insert
//	             overwrites its value in place.
//	B (write):   the deferred CPU debt lands on the clock in one advance;
//	             then the staged images — every flush the batch triggered,
//	             plus any a failed submission left pending — are
//	             address-sorted and issued as one storage.BatchWriter
//	             submission, overlapping their service across the device's
//	             queue lanes (SSD NCQ channels, NAND planes, disk elevator).
//	             Shared-log layouts allocate consecutive slots, so a batch's
//	             flushes form sequential runs that pay the fixed write cost
//	             once.
//	C (recycle): written image buffers return to the pool. A failed
//	             submission keeps its images staged (see flushStaged).
//
// Phase A applies keys in *input order* rather than super-table order, and
// that is a correctness requirement, not a convenience: the shared-log
// layout assigns flush slots from one global cursor and reclaims them FIFO
// across all super tables, so the global interleaving of flushes decides
// which incarnations survive. Applying in input order makes every
// structural counter and every subsequent lookup independent of how the
// keys are batched (the differential oracle pins a loop of single-key
// Inserts against windowed batches); only the device time model — and the
// physical write pattern, via sorting and same-slot collapsing — improves
// with larger batches.
//
// Partial-discard policies may need to scan an incarnation whose image is
// still staged (the slot ring wrapped within one batch, or a submission
// failed); readImage serves those addresses from the staged buffers, so
// the scan sees exactly the bytes the device will eventually hold.

// InsertBatch applies len(keys) inserts through the insert pipeline.
// State, structural counters and all subsequent lookups do not depend on
// how a (key, value) sequence is cut into batches; virtual time is lower
// for larger batches because their flush writes share one address-sorted
// overlapped submission and their CPU charges land on the clock in one
// advance. If phase A fails, the batch is applied up to the failing key.
// Staged images are submitted either way, so the device matches the
// structure's bookkeeping; when that submission fails, InsertBatch returns
// its error with every entry applied and readable (see flushStaged).
func (b *BufferHash) InsertBatch(keys, values []uint64) error {
	if len(keys) != len(values) {
		return fmt.Errorf("core: InsertBatch: %d keys, %d values", len(keys), len(values))
	}
	// Phase A: apply every key in input order with writes staged.
	var applyErr error
	for i, key := range keys {
		st, kh := b.route(key)
		b.stats.Inserts++
		if err := st.insert(kh, values[i]); err != nil {
			applyErr = err
			break
		}
	}

	// Phases B and C: one clock advance for the whole batch's memory work,
	// then every staged image in one overlapped submission.
	b.settleCPUDebt()
	writeErr := b.flushStaged()
	if applyErr != nil {
		return applyErr
	}
	return writeErr
}

// DeleteBatch applies len(keys) lazy deletes (§5.1.1). Deletes perform no
// I/O, so batching only amortizes the CPU clock charges into one advance;
// counters and state do not depend on the batch size.
func (b *BufferHash) DeleteBatch(keys []uint64) error {
	for _, key := range keys {
		st, kh := b.route(key)
		b.stats.Deletes++
		st.del(kh)
	}
	b.settleCPUDebt()
	return nil
}

// BufferedValue returns the value word currently buffered in DRAM for key,
// if any. It is an accounting peek — no CPU charge, no counter movement,
// no I/O — used by the clam facade to detect a value-log record dying when
// its pointer is overwritten or deleted while still buffered. It is not
// part of the paper's cost model and must not be used as a lookup.
func (b *BufferHash) BufferedValue(key uint64) (uint64, bool) {
	st, kh := b.route(key)
	return st.buf.Get(kh)
}
