package core

import (
	"sync"
	"time"
)

// Phase-A partitioning: the intra-batch parallelism seam of the batched
// pipelines.
//
// Both batched engines (batch.go, insertbatch.go) open with a phase A whose
// work is read-mostly memory resolution — route hashing, buffer probes,
// Bloom queries — and close with phases that mutate shared state (probe
// gather and resolution, buffer application, flush staging, the clock
// advance). Phase A is the only part that admits parallelism without
// touching the serial-equivalence contract, and this file provides the
// partitioning machinery:
//
//   - The batch's keys are split into contiguous sub-ranges (one per
//     "lane"), and a PhaseRunner executes the per-lane tasks — inline, on
//     fresh goroutines (GoRunner), or on a cooperating caller's idle
//     workers (the clam batch router's co-scheduling).
//   - Each lane owns private scratch (memo table, pending work list, local
//     counters, CPU-debt sum), so the sub-ranges synchronize by
//     disjointness — striping by sub-range instead of locking or atomically
//     updating shared structures.
//   - The drain that follows (phases B/C) is single-sequenced: it adds the
//     lanes' CPU-debt sums and counters in lane order (pure sums, so the
//     totals equal the serial pass's), settles the debt in one clock
//     advance, and concatenates the lanes' work lists in lane order, which
//     — lanes being contiguous input sub-ranges — is exactly the input
//     order the serial phase A would have produced.
//
// The contract that makes this exact rather than approximate: phase A of a
// lookup batch performs no mutation, and its per-key outcome is a pure
// function of the structure's state at batch entry. Duplicate keys that
// land in different lanes are recomputed instead of memoized; recomputation
// returns byte-identical results and charges byte-identical CPU costs, by
// the same invariant the serial memo replay relies on. Insert batches keep
// all mutation in the sequenced drain and only lift the route hashing —
// a pure bijection per key — into parallel phase A.

// PhaseRunner executes the lane tasks of a parallel phase A: task(lane)
// for every lane in [0, lanes), in any order and on any goroutines, and
// returns only when all invocations have completed. Implementations must
// establish the usual happens-before edges (the caller's writes before the
// run are visible to tasks; task writes are visible to the caller after).
type PhaseRunner func(lanes int, task func(lane int))

// GoRunner is the self-contained PhaseRunner: lanes-1 fresh goroutines
// plus the calling goroutine. It is what a single CLAM uses when opened
// with parallelism; the sharded batch router substitutes a runner backed
// by its idle workers instead of spawning.
func GoRunner(lanes int, task func(lane int)) {
	if lanes <= 1 {
		if lanes == 1 {
			task(0)
		}
		return
	}
	var wg sync.WaitGroup
	wg.Add(lanes - 1)
	for i := 1; i < lanes; i++ {
		go func(lane int) {
			defer wg.Done()
			task(lane)
		}(i)
	}
	task(0)
	wg.Wait()
}

// phaseLane is one lane's private phase-A scratch, reused across batches.
type phaseLane struct {
	memo    []memoEntry // direct-mapped, memoSlots entries; lane-local
	epoch   uint32
	pending []batchKey
	stats   Stats
	debt    time.Duration // deferred CPU charges of the lane's sub-range
}

// minLaneKeys is the smallest sub-range worth a lane: below this the
// synchronization overhead of handing a lane to another worker exceeds the
// memory-resolution work inside it.
const minLaneKeys = 64

// SetParallel configures the phase-A partitioner: up to width lanes, run by
// runner. width <= 1 or a nil runner restores the serial phase A. The
// BufferHash single-caller contract is unchanged — one batch runs at a
// time; the runner only spreads that batch's phase A over helpers.
func (b *BufferHash) SetParallel(width int, runner PhaseRunner) {
	if width <= 1 || runner == nil {
		b.parWidth, b.parRun = 1, nil
		return
	}
	b.parWidth, b.parRun = width, runner
}

// phaseLanes returns the lane count for an n-key batch: bounded by the
// configured width and by one lane per minLaneKeys keys, 1 when parallel
// phase A is off or not worth it.
func (b *BufferHash) phaseLanes(n int) int {
	if b.parRun == nil || b.parWidth <= 1 {
		return 1
	}
	lanes := n / minLaneKeys
	if lanes > b.parWidth {
		lanes = b.parWidth
	}
	if lanes < 1 {
		lanes = 1
	}
	return lanes
}

// lane returns lane i's scratch, growing the lane set on demand.
func (b *BufferHash) lane(i int) *phaseLane {
	for len(b.lanes) <= i {
		b.lanes = append(b.lanes, &phaseLane{memo: make([]memoEntry, memoSlots)})
	}
	return b.lanes[i]
}

// laneRange returns lane i's contiguous sub-range of an n-key batch split
// into lanes parts: [lo, hi).
func laneRange(n, lanes, i int) (lo, hi int) {
	per := (n + lanes - 1) / lanes
	lo = i * per
	hi = lo + per
	if hi > n {
		hi = n
	}
	if lo > n {
		lo = n
	}
	return lo, hi
}
