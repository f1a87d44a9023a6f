package storage

import (
	"cmp"
	"slices"
	"time"

	"repro/internal/vclock"
)

// ReadReq is one request of a batched I/O: a read fills P from device
// offset Off, a write stores P at Off.
type ReadReq struct {
	P   []byte
	Off int64
}

// WriteReq is one write of a batched I/O: store P at device offset Off. It
// is the same request as a ReadReq.
type WriteReq = ReadReq

// BatchReader is the read half of every Device: a set of reads submitted
// as one queued batch. It is the device half of the batched lookup
// pipeline: BufferHash gathers every flash probe a lookup batch needs,
// dedupes and sorts them, and submits them here in one call.
//
// ReadBatch fills every request's buffer and returns the service time of
// the whole batch under the overlap model (see Queue), advancing the device
// clock by it once. Counters account every request (Reads and BytesRead
// grow by the batch size). A batch that fails a check reads nothing and
// leaves the clock and Counters unchanged; callers must treat request
// buffers as invalid on error.
type BatchReader interface {
	ReadBatch(reqs []ReadReq) (time.Duration, error)
}

// BatchWriter is the write half of every Device, the twin of BatchReader.
// It is the device half of the batched insert pipeline: BufferHash collects
// every incarnation image a batch's flushes produce and submits them here
// in one call.
//
// WriteBatch stores every request's bytes and returns the service time of
// the whole batch under the overlap model (see Queue), advancing the device
// clock by it once. Counters account every request (Writes and
// BytesWritten grow by the batch size). Requests must respect the same
// alignment rules as WriteAt and must not overlap one another. A batch that
// fails a check writes nothing: stored bytes, Counters and the clock stay
// as they were.
type BatchWriter interface {
	WriteBatch(reqs []WriteReq) (time.Duration, error)
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

// Queue is the submission path every device model shares. Every medium
// follows the linear cost model of §6.1, a + b·x, where a batch pays the
// fixed cost a once per run instead of once per request (P3). The overlap
// model has three steps:
//
//  1. Requests are served in ascending address order (NCQ / elevator).
//  2. A request starting exactly where the previous request of its batch
//     ended joins a sequential run and pays no fixed cost (no seek, no
//     command setup), only the transfer.
//  3. The device has Lanes queue lanes (SSD channels, NAND planes, or 1 for
//     a single-actuator disk). Each request's service time goes on the
//     least-loaded lane, and the batch costs the maximum lane total: lanes
//     overlap, they do not add. With one lane the model is the sorted
//     serial sum, still a win on seek-bound media.
//
// A device serves a batch in three calls. Admit checks and sorts it. The
// device then does what its model needs before service, such as paying GC
// debt or checking program order. Serve moves the bytes and returns the
// overlapped time, to which the device adds any time of its own before it
// calls Charge. ReadAt and WriteAt are a batch of one request, so each
// device has one cost path per direction.
type Queue struct {
	Geometry   Geometry
	WriteAlign int          // alignment unit of writes; reads may start at any byte
	Lanes      int          // queue lanes; 0 or 1 serializes
	Store      *SparseStore // the device's bytes
	Clock      *vclock.Clock
	Fault      FaultFunc // fault-injection hook, or nil
	Counters   Counters

	// Service is what the device model supplies: the service time of one
	// request of n bytes at off, served right after the requests sorted
	// before it in its batch. newRun reports that the request does not
	// start where the previous one ended, so it pays the fixed command
	// cost (setup, seek). For a write it also does the model's bookkeeping
	// (FTL mapping, seek position).
	Service func(op Op, off, n int64, newRun bool) time.Duration

	svc []time.Duration // Serve's per-request service-time scratch
}

// Admit checks every request of a batch, in the order given, against the
// range, the alignment and the fault hook before any is served, then sorts
// the batch by address. It reports whether the batch is to be served: not
// if it is empty, or failed a check, whose error it returns. A batch that
// is not served must change nothing.
func (q *Queue) Admit(op Op, reqs []ReadReq) (bool, error) {
	align := 1
	if op == OpWrite {
		align = q.WriteAlign
	}
	for _, r := range reqs {
		if err := CheckRange(q.Geometry, r.Off, int64(len(r.P)), align); err != nil {
			return false, err
		}
		if q.Fault != nil {
			if err := q.Fault(op, r.Off, len(r.P)); err != nil {
				return false, err
			}
		}
	}
	SortReadReqs(reqs)
	return len(reqs) > 0, nil
}

// Serve serves an admitted batch: each request, in address order, gets its
// service time from the model, moves its bytes through the Store and is
// counted. It returns the batch's overlapped time, without charging it.
func (q *Queue) Serve(op Op, reqs []ReadReq) time.Duration {
	if cap(q.svc) < len(reqs) {
		q.svc = make([]time.Duration, len(reqs))
	}
	svc := q.svc[:len(reqs)]
	prevEnd := int64(-1)
	for i, r := range reqs {
		n := int64(len(r.P))
		svc[i] = q.Service(op, r.Off, n, r.Off != prevEnd)
		prevEnd = r.Off + n
		if op == OpRead {
			q.Store.ReadAt(r.P, r.Off)
			q.Counters.Reads++
			q.Counters.BytesRead += uint64(n)
		} else {
			q.Store.WriteAt(r.P, r.Off)
			q.Counters.Writes++
			q.Counters.BytesWritten += uint64(n)
		}
	}
	return OverlapLanes(svc, q.Lanes)
}

// Charge accounts lat as busy time, advances the clock by it and returns
// it.
func (q *Queue) Charge(lat time.Duration) time.Duration {
	q.Counters.BusyTime += lat
	q.Clock.Advance(lat)
	return lat
}
