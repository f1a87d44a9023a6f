package main

import (
	"context"
	"fmt"
	"time"

	"repro/clam"
	"repro/internal/bitslice"
	"repro/internal/bloom"
	"repro/internal/core"
	"repro/internal/hashutil"
	"repro/internal/ssd"
	"repro/internal/vclock"
)

// replay is the traced half of a traced run: one CLAM per shard, opened
// as the Sharded store opens its shards but over span-recording device
// wrappers, fed the per-shard sub-batches the router would give each
// shard. WithCustomDevice is refused for more than one shard, which is why
// a sharded store is peeled into its CLAMs here. On a single-CLAM workload
// the replay is that CLAM over wrapped devices.
type replay struct {
	w     *workload
	tr    *tracer
	clams []*clam.CLAM
	idx   []*devStats // index-device submission counters per shard

	post, end []shardSnap

	// Measured-phase aggregates. Even calls are traced, odd calls are not;
	// the two halves give the tracing overhead.
	tracedKeys, untracedKeys int
	tracedWall, untracedWall time.Duration
	tracedCalls              int
	tracedGets, tracedPuts   int
	routerSelf               time.Duration // Σ over untraced calls of Sharded wall − peeled wall / workers
	routerKeys               int
	batches, reqs            uint64 // index-device batched submissions in the measured phase
}

// shardSeed is the seed Open gives shard i of a store opened with the
// default seed 1.
func shardSeed(w *workload, i int) uint64 {
	if w.shards == 1 {
		return 1
	}
	return hashutil.Hash64Seed(uint64(i), 1)
}

func openReplay(w *workload, tr *tracer) (*replay, error) {
	n := w.shards
	rp := &replay{w: w, tr: tr}
	for i := range n {
		clk := vclock.New()
		dev, ds, err := wrapDevice(ssd.New(ssd.IntelX18M(), w.flash/int64(n), clk), tr, spanDevRead, spanDevWrite)
		if err != nil {
			return nil, err
		}
		opts := []clam.Option{
			clam.WithCustomDevice(dev), clam.WithClock(clk),
			clam.WithFlash(w.flash / int64(n)), clam.WithMemory(w.memory / int64(n)),
			clam.WithSeed(shardSeed(w, i)),
		}
		if w.vlog > 0 {
			vdev, _, err := wrapDevice(ssd.New(ssd.IntelX18M(), w.vlog/int64(n), clk), tr, spanVlogRead, spanVlogWrite)
			if err != nil {
				return nil, err
			}
			opts = append(opts, clam.WithValueLogDevice(vdev))
		}
		st, err := clam.Open(opts...)
		if err != nil {
			return nil, fmt.Errorf("replay shard %d: %w", i, err)
		}
		rp.clams = append(rp.clams, st.(*clam.CLAM))
		rp.idx = append(rp.idx, ds)
	}
	return rp, nil
}

// split routes o's keys to per-shard sub-calls in input order, as the
// Sharded router groups a batch.
func (rp *replay) split(o *op, subs []op) []op {
	if rp.w.shards == 1 {
		return append(subs[:0], *o)
	}
	subs = subs[:rp.w.shards]
	for i := range subs {
		subs[i].reset(o.kind)
	}
	shift := shardShift(rp.w.shards)
	for j, k := range o.keys {
		sub := &subs[k>>shift]
		sub.keys = append(sub.keys, k)
		if o.kind == putU64Batch {
			sub.vals = append(sub.vals, o.vals[j])
		} else {
			sub.want = append(sub.want, o.want[j])
		}
	}
	return subs
}

func (rp *replay) snaps() []shardSnap {
	out := make([]shardSnap, len(rp.clams))
	for i, c := range rp.clams {
		out[i] = snapCLAM(c)
	}
	return out
}

// run replays set-up untraced, then the first calls measured calls of the
// stream. mainWall holds the Sharded store's wall time of each call.
func (rp *replay) run(ctx context.Context, seed uint64, calls int, mainWall []time.Duration) error {
	s := newStream(rp.w, seed)
	var (
		o    op
		subs = make([]op, rp.w.shards)
		res  = make([]result, rp.w.shards)
		errs = make([]error, rp.w.shards)
		t    tally
	)
	for c := 0; s.prefillCall(&o, c); c++ {
		subs = rp.split(&o, subs)
		for sh := range subs {
			if len(subs[sh].keys) == 0 {
				continue
			}
			if err := do(ctx, rp.clams[sh], &subs[sh], &res[sh]); err != nil {
				return fmt.Errorf("replay set-up call %d shard %d: %w", c, sh, err)
			}
		}
	}
	for _, c := range rp.clams {
		c.ResetMetrics()
	}
	rp.post = rp.snaps()
	for _, ds := range rp.idx {
		*ds = devStats{}
	}
	for c := range calls {
		rp.w.next(s, &o, c)
		subs = rp.split(&o, subs)
		traced := c%2 == 0
		name := spanShardGet
		if o.kind.isPut() {
			name = spanShardPut
		}
		rp.tr.on = traced
		t0 := time.Now()
		if traced {
			rp.tr.beginCall(c)
		}
		for sh := range subs {
			if len(subs[sh].keys) == 0 {
				continue
			}
			if traced {
				rp.tr.push(name)
			}
			errs[sh] = do(ctx, rp.clams[sh], &subs[sh], &res[sh])
			if traced {
				rp.tr.pop()
			}
		}
		if traced {
			rp.tr.endCall()
		}
		wall := time.Since(t0)
		rp.tr.on = false

		n := len(o.keys)
		if traced {
			rp.tracedCalls++
			rp.tracedKeys += n
			rp.tracedWall += wall
			if o.kind.isPut() {
				rp.tracedPuts += n
			} else {
				rp.tracedGets += n
			}
		} else {
			rp.untracedKeys += n
			rp.untracedWall += wall
			rp.routerSelf += mainWall[c] - wall/time.Duration(max(rp.w.workers, 1))
			rp.routerKeys += n
		}
		for sh := range subs {
			if len(subs[sh].keys) == 0 {
				continue
			}
			if err := t.check(s, &subs[sh], &res[sh], errs[sh]); err != nil {
				return fmt.Errorf("replay call %d shard %d: %w", c, sh, err)
			}
			if errs[sh] != nil {
				return fmt.Errorf("replay call %d shard %d: %w", c, sh, errs[sh])
			}
		}
	}
	rp.end = rp.snaps()
	for _, ds := range rp.idx {
		rp.batches += ds.batches
		rp.reqs += ds.reqs
	}
	return nil
}

// sameWork checks that the replay did exactly the work of the measured
// store: per shard, identical core counters, device and value-log
// counters and virtual clock, after set-up and at the end.
func sameWork(w *workload, rp *replay, win *window) error {
	for _, pair := range []struct {
		when       string
		store, rep []shardSnap
	}{{"after set-up", win.post.shards, rp.post}, {"at the end", win.end.shards, rp.end}} {
		for i := range pair.store {
			a, b := pair.store[i], pair.rep[i]
			if w.vlog == 0 {
				// Only kind-opened stores build an (unused) value log here.
				a.vlog = b.vlog
			}
			if a != b {
				return fmt.Errorf("replay shard %d differs from the measured store %s:\nstore  %+v\nreplay %+v", i, pair.when, a, b)
			}
		}
	}
	return nil
}

// bankGeom is the Bloom-bank geometry of one shard.
type bankGeom struct {
	partBits uint
	m        uint64
	k, h     int
	perBuf   int
	seed     uint64
}

func geomOf(cfg core.Config) bankGeom {
	h := cfg.FilterHashes
	if h == 0 {
		h = bloom.OptimalHashes(cfg.FilterBits(), cfg.EntriesPerBuffer())
	}
	return bankGeom{
		partBits: cfg.PartitionBits, m: cfg.FilterBits(), k: cfg.NumIncarnations,
		h: h, perBuf: cfg.EntriesPerBuffer(), seed: cfg.Seed,
	}
}

// bankReplay replays the keys shard 0 receives in set-up and in the
// virtual prefix through one bitslice.Bank per super table with shard 0's
// geometry: staging adds for puts, with a rotation each time a table has
// taken a buffer's worth, and queries for lookups. Keys are routed and
// hashed as the core does before the clock starts, so only bank calls are
// timed. It returns wall ns per add and per query.
func bankReplay(w *workload, seed uint64, g bankGeom) (addNs, queryNs float64) {
	banks := make([]*bitslice.Bank, 1<<g.partBits)
	for i := range banks {
		banks[i] = bitslice.NewBank(g.m, g.k, g.h)
	}
	fill := make([]int, len(banks))
	seedMix := hashutil.Mix64(g.seed)
	shift := shardShift(w.shards)
	type routed struct {
		part int
		kh   uint64
	}
	var adds, queries []routed
	var addT, queryT time.Duration
	var nAdd, nQuery int
	var sink uint64
	flush := func() {
		t0 := time.Now()
		for _, r := range adds {
			banks[r.part].AddStaging(r.kh)
			if fill[r.part]++; fill[r.part] == g.perBuf {
				banks[r.part].Rotate()
				fill[r.part] = 0
			}
		}
		t1 := time.Now()
		for _, r := range queries {
			sink += banks[r.part].Query(r.kh)
		}
		queryT += time.Since(t1)
		addT += t1.Sub(t0)
		nAdd += len(adds)
		nQuery += len(queries)
		adds, queries = adds[:0], queries[:0]
	}
	take := func(o *op) {
		for j, k := range o.keys {
			if k>>shift != 0 { // another shard's key
				continue
			}
			if o.kind >= getBytes {
				k = hashutil.HashBytes(o.bkeys[j], g.seed)
			}
			h := hashutil.Mix64(k ^ seedMix)
			p, kh := hashutil.Split(h, g.partBits)
			if kh == 0 {
				kh = 1
			}
			if o.kind.isPut() {
				adds = append(adds, routed{int(p), kh})
			} else {
				queries = append(queries, routed{int(p), kh})
			}
		}
		if len(adds)+len(queries) >= 4096 {
			flush()
		}
	}
	s := newStream(w, seed)
	var o op
	for c := 0; s.prefillCall(&o, c); c++ {
		take(&o)
	}
	for c := range w.virtCalls {
		w.next(s, &o, c)
		take(&o)
	}
	flush()
	return nsPer(addT, nAdd), nsPer(queryT, nQuery)
}

func nsPer(d time.Duration, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(n)
}
