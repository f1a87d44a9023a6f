package storage

import (
	"cmp"
	"slices"
	"time"
)

// ReadReq is one read of a batched I/O: fill P from device offset Off.
type ReadReq struct {
	P   []byte
	Off int64
}

// BatchReader is the read half of every Device: a set of reads serviced as
// one queued submission, overlapping their service across the device's
// internal parallelism (SSD channels, NAND planes) and eliminating seeks
// between address-sorted requests. It is the device half of the batched
// lookup pipeline: BufferHash gathers every flash probe a lookup batch
// needs, dedupes and sorts them, and submits them here in one call.
//
// ReadBatch fills every request's buffer and returns the overlapped service
// time of the whole batch, advancing the device clock by that amount once —
// not by the sum of per-request latencies, which is what a loop over ReadAt
// would charge. Counters still account every request individually (Reads
// and BytesRead grow by the batch size), so I/O counts stay comparable with
// the serial path; only the time model changes.
//
// The overlap model is deliberately explicit and shared by all devices:
//
//  1. Requests are served in ascending address order (NCQ / elevator).
//  2. A request starting exactly where the previous request ended joins a
//     sequential run and pays no per-request fixed cost (no seek, no
//     command setup) — only the transfer cost.
//  3. The device has a fixed number of queue lanes (channels, planes, or 1
//     for a single-actuator disk). Each request is placed on the
//     least-loaded lane, and the batch's service time is the maximum lane
//     total — lanes overlap, they do not add.
//
// Devices that cannot reorder or overlap simply have one lane, where the
// model degenerates to the sorted serial sum (still a win on seek-bound
// media). A batch that fails a range, alignment or fault check reads
// nothing and leaves the clock and Counters unchanged. Callers must treat
// request buffers as invalid on error.
type BatchReader interface {
	ReadBatch(reqs []ReadReq) (time.Duration, error)
}

// SortReadReqs orders reqs by ascending device address (step 1 of the
// overlap model). Ties keep their relative order so duplicate-page reads
// stay adjacent for callers that dedupe. Already-sorted batches — the
// common case, since the core pipeline submits sorted requests — are
// detected with one linear scan and left untouched.
func SortReadReqs(reqs []ReadReq) {
	for i := 1; i < len(reqs); i++ {
		if reqs[i].Off < reqs[i-1].Off {
			slices.SortStableFunc(reqs, func(a, b ReadReq) int { return cmp.Compare(a.Off, b.Off) })
			return
		}
	}
}

// OverlapLanes implements step 3 of the overlap model: distribute the
// per-request service times over `lanes` queue lanes, each request on the
// currently least-loaded lane, and return the maximum lane total. With one
// lane this is the plain sum. svc is consumed in order, so callers pass the
// address-sorted (and sequential-run-discounted) service times.
func OverlapLanes(svc []time.Duration, lanes int) time.Duration {
	if lanes > len(svc) {
		lanes = len(svc)
	}
	if lanes <= 1 {
		var sum time.Duration
		for _, s := range svc {
			sum += s
		}
		return sum
	}
	var laneBuf [32]time.Duration // avoids a heap lane slice for real queue depths
	var lane []time.Duration
	if lanes <= len(laneBuf) {
		lane = laneBuf[:lanes]
	} else {
		lane = make([]time.Duration, lanes)
	}
	for _, s := range svc {
		min := 0
		for i := 1; i < lanes; i++ {
			if lane[i] < lane[min] {
				min = i
			}
		}
		lane[min] += s
	}
	var max time.Duration
	for _, t := range lane {
		if t > max {
			max = t
		}
	}
	return max
}

// WriteReq is one write of a batched I/O: store P at device offset Off.
type WriteReq struct {
	P   []byte
	Off int64
}

// BatchWriter is the write half of every Device, the twin of BatchReader:
// a set of writes submitted as one queued batch, served in ascending
// address order with sequential runs paying the fixed command cost once
// and per-request service times overlapped across the device's queue
// lanes. It is the device half of the batched insert pipeline: BufferHash
// collects every incarnation image a batch's flushes produce and submits
// them here in one call.
//
// WriteBatch stores every request's bytes and returns the overlapped
// service time of the whole batch, advancing the device clock by that
// amount once. Counters still account every request individually (Writes
// and BytesWritten grow by the batch size), so I/O counts stay comparable
// with a loop over WriteAt; only the time model changes. FTL bookkeeping
// (page mapping, garbage collection, erase-before-write) runs per request
// exactly as WriteAt would run it, with any synchronous GC debt paid once
// up front by the whole batch.
//
// Requests must respect the same alignment rules as WriteAt and must not
// overlap one another. A batch that fails a range, alignment or fault
// check on any request writes nothing: stored bytes, Counters and the
// clock stay as they were. On media with program-order constraints (raw
// NAND) the address-sorted requests must also respect them; a request that
// breaks program order fails after the requests sorted before it were
// written (see flashchip.Chip.WriteBatch), which full-block images written
// to erased blocks never do.
type BatchWriter interface {
	WriteBatch(reqs []WriteReq) (time.Duration, error)
}

// SortWriteReqs orders reqs by ascending device address (the elevator/NCQ
// step of the overlap model). Already-sorted batches are detected with one
// linear scan and left untouched.
func SortWriteReqs(reqs []WriteReq) {
	for i := 1; i < len(reqs); i++ {
		if reqs[i].Off < reqs[i-1].Off {
			slices.SortStableFunc(reqs, func(a, b WriteReq) int { return cmp.Compare(a.Off, b.Off) })
			return
		}
	}
}
