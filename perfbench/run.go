package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/bits"
	"runtime"
	"slices"
	"time"

	"repro/clam"
	"repro/internal/core"
	"repro/internal/storage"
)

// errWrong marks a value check that failed: the run is not correct.
var errWrong = errors.New("wrong result")

// openStore opens the workload's store by device kind, with every option
// not named by the workload left at its default.
func openStore(w *workload) (clam.Store, error) {
	opts := []clam.Option{clam.WithDevice(clam.IntelSSD), clam.WithFlash(w.flash), clam.WithMemory(w.memory)}
	if w.vlog > 0 {
		opts = append(opts, clam.WithValueLog(w.vlog))
	}
	if w.shards > 1 {
		opts = append(opts, clam.WithShards(w.shards), clam.WithWorkers(w.workers))
	}
	return clam.Open(opts...)
}

// clamsOf lists the CLAMs behind a store: the shards of a Sharded store,
// or the store itself.
func clamsOf(st clam.Store) []*clam.CLAM {
	switch s := st.(type) {
	case *clam.Sharded:
		cs := make([]*clam.CLAM, s.NumShards())
		for i := range cs {
			cs[i] = s.Shard(i)
		}
		return cs
	case *clam.CLAM:
		return []*clam.CLAM{s}
	}
	panic(fmt.Sprintf("clamsOf: unexpected store %T", st))
}

// virtNow is the store's virtual time: the makespan (furthest shard clock)
// of a Sharded store, the clock of a single CLAM.
func virtNow(st clam.Store) time.Duration {
	switch s := st.(type) {
	case *clam.Sharded:
		return s.Now()
	case *clam.CLAM:
		return s.Clock().Now()
	}
	panic(fmt.Sprintf("virtNow: unexpected store %T", st))
}

// result holds what one call returned.
type result struct {
	vals   []uint64
	found  []bool
	bval   []byte
	bfound bool
}

// do issues o as one Store call.
func do(ctx context.Context, st clam.Store, o *op, r *result) error {
	var err error
	switch o.kind {
	case getU64Batch:
		r.vals, r.found, err = st.GetBatchU64(ctx, o.keys)
	case putU64Batch:
		err = st.PutBatchU64(ctx, o.keys, o.vals)
	case getBytes:
		r.bval, r.bfound, err = st.Get(o.bkeys[0])
	case putBytes:
		err = st.Put(o.bkeys[0], o.bvals[0])
	case putBytesBatch:
		err = st.PutBatch(ctx, o.bkeys, o.bvals)
	}
	return err
}

// tally counts calls, lookups and user bytes written.
type tally struct {
	calls, failed  int
	lookups, hits  uint64
	puts, putBytes uint64
}

// check compares what call o returned with what the stream wrote: a hit
// must carry the value last written under its key, a never-written key
// must miss, and a key marked mustHit must be found. Any mismatch is
// errWrong. A call that returned an error counts as failed.
func (t *tally) check(s *stream, o *op, r *result, callErr error) error {
	t.calls++
	if callErr != nil {
		t.failed++
		return nil
	}
	switch o.kind {
	case putU64Batch:
		t.puts += uint64(len(o.keys))
		t.putBytes += 16 * uint64(len(o.keys))
	case putBytes, putBytesBatch:
		for i := range o.bkeys {
			t.puts++
			t.putBytes += uint64(len(o.bkeys[i]) + len(o.bvals[i]))
		}
	case getU64Batch:
		for j, k := range o.keys {
			t.lookups++
			switch {
			case r.found[j] && (o.want[j] == mustMiss || r.vals[j] != valueOf(k)):
				return fmt.Errorf("%w: key %#x returned %#x", errWrong, k, r.vals[j])
			case r.found[j]:
				t.hits++
			case o.want[j] == mustHit:
				return fmt.Errorf("%w: written key %#x not found", errWrong, k)
			}
		}
	case getBytes:
		t.lookups++
		i := o.keys[0]
		switch {
		case r.bfound && o.want[0] == mustMiss:
			return fmt.Errorf("%w: never-written key index %d found", errWrong, i)
		case r.bfound:
			want := make([]byte, valBytes)
			s.byteValue(i, want)
			if !bytes.Equal(r.bval, want) {
				return fmt.Errorf("%w: key index %d returned a value it was not given", errWrong, i)
			}
			t.hits++
		case o.want[0] == mustHit:
			return fmt.Errorf("%w: written key index %d not found", errWrong, i)
		}
	}
	return nil
}

// setup opens the workload's store and prefills it. It returns the
// process CPU time and the wall time both took.
func setup(ctx context.Context, w *workload, seed uint64) (clam.Store, time.Duration, time.Duration, error) {
	c0, t0 := processCPU(), time.Now()
	st, err := openStore(w)
	if err != nil {
		return nil, 0, 0, err
	}
	s := newStream(w, seed)
	var o op
	var r result
	for c := 0; s.prefillCall(&o, c); c++ {
		if err := do(ctx, st, &o, &r); err != nil {
			return nil, 0, 0, fmt.Errorf("set-up call %d: %w", c, err)
		}
	}
	cpu, wall := processCPU()-c0, time.Since(t0)
	if w.noEviction {
		if ev := st.Stats().Core.Evictions; ev != 0 {
			return nil, 0, 0, fmt.Errorf("set-up evicted %d incarnations; the workload needs none", ev)
		}
	}
	return st, cpu, wall, nil
}

// shardSnap is one CLAM's cumulative state, compared exactly between the
// Sharded run and its peeled replay.
type shardSnap struct {
	core      core.Stats
	dev, vdev storage.Counters
	vlog      storage.ValueLogStats
	clock     time.Duration
}

func snapCLAM(c *clam.CLAM) shardSnap {
	st := c.Stats()
	return shardSnap{core: st.Core, dev: st.Device, vdev: st.ValueDevice, vlog: st.ValueLog, clock: c.Clock().Now()}
}

// snap is a store-wide snapshot.
type snap struct {
	stats  clam.Stats
	shards []shardSnap
	now    time.Duration // virtNow
	tally  tally
}

func takeSnap(st clam.Store, t tally) snap {
	cs := clamsOf(st)
	sn := snap{stats: st.Stats(), shards: make([]shardSnap, len(cs)), now: virtNow(st), tally: t}
	for i, c := range cs {
		sn.shards[i] = snapCLAM(c)
	}
	return sn
}

// window is the measured phase of one run.
type window struct {
	calls  int
	wall   []time.Duration // wall time per call
	cpu    []time.Duration // process CPU time per call
	virt   []time.Duration // per call of the virtual prefix
	shares float64         // Σ per call of (keys on the busiest shard ÷ keys)

	post, prefix, end snap // after set-up, after the prefix, at the end
	mem0, mem1        runtime.MemStats
	elapsed           time.Duration // wall time of the measured phase
	clockCost         time.Duration // subtracted from each per-call CPU reading
	coopLanes         uint64
}

// measure runs the workload's stream against st for at least the virtual
// prefix and at least dur of wall time, checking every value read back.
// On a failed check it returns the window so far with the error.
// ResetMetrics is called first; it clears the core counters and the
// histograms but not the device, value-log and clock state, which the
// post-set-up snapshot is taken for.
func measure(ctx context.Context, w *workload, st clam.Store, seed uint64, dur time.Duration) (*window, error) {
	st.ResetMetrics()
	win := &window{post: takeSnap(st, tally{})}
	s := newStream(w, seed) // set-up draws nothing from the generator
	var (
		o   op
		r   result
		t   tally
		cnt = make([]int, w.shards)
	)
	shift := shardShift(w.shards)
	runtime.GC()
	runtime.ReadMemStats(&win.mem0)
	win.clockCost = cpuClockCost()
	start := time.Now()
	for c := 0; c < w.virtCalls || time.Since(start) < dur; c++ {
		w.next(s, &o, c)
		if w.shards > 1 {
			clear(cnt)
			for _, k := range o.keys {
				cnt[k>>shift]++
			}
			win.shares += float64(slices.Max(cnt)) / float64(len(o.keys))
		} else {
			win.shares++
		}
		inPrefix := c < w.virtCalls
		var v0 time.Duration
		if inPrefix {
			v0 = virtNow(st)
		}
		c0 := processCPU()
		t0 := time.Now()
		err := do(ctx, st, &o, &r)
		wall := time.Since(t0)
		win.cpu = append(win.cpu, max(processCPU()-c0-win.clockCost, 0))
		if inPrefix {
			win.virt = append(win.virt, virtNow(st)-v0)
		}
		win.wall = append(win.wall, wall)
		win.calls++
		if err := t.check(s, &o, &r, err); err != nil {
			return win, fmt.Errorf("call %d: %w", c, err)
		}
		if c+1 == w.virtCalls {
			win.prefix = takeSnap(st, t)
		}
	}
	win.elapsed = time.Since(start)
	runtime.ReadMemStats(&win.mem1)
	win.end = takeSnap(st, t)
	for _, n := range win.end.stats.Router.CoopLanes {
		win.coopLanes += n
	}
	return win, nil
}

// shardShift is the right shift that maps a key to its shard: the top
// log2(shards) bits, as the Sharded router routes.
func shardShift(shards int) uint { return 64 - uint(bits.TrailingZeros(uint(shards))) }
