package clam

import (
	"bytes"
	"math/rand"
	"testing"
)

// TestBatchGroupingAllocs is the allocation guard for the batch grouping
// scratch: once the pools are warm, grouping a large batch — the counting
// sort, the per-shard runs, the input positions and the fingerprint buffer
// — must not allocate per call.
func TestBatchGroupingAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops a fraction of sync.Pool puts, so exact allocation counts are meaningless; CI runs this guard in a non-race step")
	}
	s := openShardedT(t, WithDevice(IntelSSD), WithFlash(16<<20), WithMemory(4<<20),
		WithShards(8), WithWorkers(4), WithSeed(5))
	rng := rand.New(rand.NewSource(13))
	keys := make([]uint64, 4096)
	vals := make([]uint64, len(keys))
	bkeys := make([][]byte, 512)
	for i := range keys {
		keys[i], vals[i] = rng.Uint64(), uint64(i)
	}
	for i := range bkeys {
		bkeys[i] = make([]byte, 16)
		rng.Read(bkeys[i])
	}
	warm := func() {
		s.putGroups(s.group(keys, vals, nil, nil, false))
		s.putGroups(s.group(keys, nil, nil, nil, true))
		fps := s.fingerprints(bkeys)
		s.putGroups(s.group(*fps, nil, bkeys, bkeys, true))
		s.putFingerprints(fps)
	}
	warm()
	// sync.Pool may shed entries on a GC, so allow a stray allocation or
	// two; a per-key or per-call regression measures in the hundreds.
	if allocs := testing.AllocsPerRun(20, warm); allocs > 4 {
		t.Fatalf("grouping allocates %.1f allocs per batch; want ~0", allocs)
	}
}

// TestPooledGroupsDropByteSlices checks that the grouping scratch a byte
// batch returns to the pool references none of the batch's keys, values or
// results, so a retained pool entry cannot pin a caller's memory.
func TestPooledGroupsDropByteSlices(t *testing.T) {
	s := openShardedT(t, WithDevice(IntelSSD), WithFlash(16<<20), WithMemory(4<<20),
		WithShards(4), WithSeed(5))
	rng := rand.New(rand.NewSource(17))
	keys := make([][]byte, 1000)
	vals := make([][]byte, len(keys))
	for i := range keys {
		keys[i], vals[i] = make([]byte, 16), make([]byte, 40)
		rng.Read(keys[i])
		rng.Read(vals[i])
	}
	ctx := t.Context()
	for _, tc := range []struct {
		name string
		run  func() error
	}{
		{"PutBatch", func() error { return s.PutBatch(ctx, keys, vals) }},
		{"GetBatch", func() error { _, _, err := s.GetBatch(ctx, keys); return err }},
	} {
		var g *shardGroups
		// The pool may drop a put (GC, or at random under -race); retry.
		for attempt := 0; g == nil && attempt < 50; attempt++ {
			if err := tc.run(); err != nil {
				t.Fatal(err)
			}
			g, _ = s.groups.Get().(*shardGroups)
		}
		if g == nil {
			t.Fatalf("%s: no pooled groups after 50 batches", tc.name)
		}
		if cap(g.bkeys) < len(keys) || cap(g.bvals) < len(keys) {
			t.Fatalf("%s: pooled groups never held the batch (caps %d, %d)", tc.name, cap(g.bkeys), cap(g.bvals))
		}
		for i, b := range g.bkeys[:cap(g.bkeys)] {
			if b != nil {
				t.Fatalf("%s: pooled bkeys[%d] still references a batch slice", tc.name, i)
			}
		}
		for i, b := range g.bvals[:cap(g.bvals)] {
			if b != nil {
				t.Fatalf("%s: pooled bvals[%d] still references a batch slice", tc.name, i)
			}
		}
	}
}

// pick returns xs at the given indices, in order.
func pick[T any](xs []T, idx []int) []T {
	out := make([]T, len(idx))
	for j, i := range idx {
		out[j] = xs[i]
	}
	return out
}

// TestRouterMatchesPerShardBatches pins the router's chunking. A Sharded
// batch op must leave every shard exactly as the shard's own batch method
// would, called with that shard's keys in input order: chunk boundaries
// decide which probes and flush writes overlap in virtual time, so a moved
// boundary shows in the shard clocks. The chunk size (100) divides none of
// the per-shard runs, and the batches are uniform, hot-shard and
// single-shard.
func TestRouterMatchesPerShardBatches(t *testing.T) {
	opts := []Option{WithDevice(IntelSSD), WithFlash(16 << 20), WithMemory(4 << 20),
		WithSeed(3), WithShards(4), WithWorkers(3), WithBatchChunk(100)}
	routed := openShardedT(t, opts...)
	direct := openShardedT(t, opts...)
	ctx := t.Context()
	rng := rand.New(rand.NewSource(31))
	n := routed.NumShards()

	check := func(step string) {
		t.Helper()
		for i := 0; i < n; i++ {
			r, d := routed.Shard(i), direct.Shard(i)
			if rt, dt := r.Clock().Now(), d.Clock().Now(); rt != dt {
				t.Fatalf("%s: shard %d clock %v, per-shard batches %v", step, i, rt, dt)
			}
			rs, ds := r.Stats(), d.Stats()
			if rs.Core != ds.Core || rs.Device != ds.Device || rs.ValueDevice != ds.ValueDevice || rs.ValueLog != ds.ValueLog {
				t.Fatalf("%s: shard %d counters diverge:\nrouted %+v %+v %+v %+v\ndirect %+v %+v %+v %+v", step, i,
					rs.Core, rs.Device, rs.ValueDevice, rs.ValueLog, ds.Core, ds.Device, ds.ValueDevice, ds.ValueLog)
			}
		}
	}
	// split returns each shard's input indices, in input order.
	split := func(m int, shardOf func(i int) int) [][]int {
		idx := make([][]int, n)
		for i := 0; i < m; i++ {
			idx[shardOf(i)] = append(idx[shardOf(i)], i)
		}
		return idx
	}
	u64Split := func(keys []uint64) [][]int {
		return split(len(keys), func(i int) int { return routed.shardIndex(keys[i]) })
	}
	byteSplit := func(keys [][]byte) [][]int {
		return split(len(keys), func(i int) int { return routed.shardIndex(fingerprint(keys[i], routed.fpSeed)) })
	}
	// perShard runs op on every shard with work; op must act on direct.
	perShard := func(step string, idx [][]int, op func(c *CLAM, idx []int) error) {
		t.Helper()
		for sh, ix := range idx {
			if len(ix) > 0 {
				if err := op(direct.Shard(sh), ix); err != nil {
					t.Fatalf("%s: shard %d: %v", step, sh, err)
				}
			}
		}
	}
	must := func(step string, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
	}

	// Fill past the buffers first, so later lookups probe flash.
	fill := make([]uint64, 60000)
	fillVals := make([]uint64, len(fill))
	for i := range fill {
		fill[i], fillVals[i] = rng.Uint64(), rng.Uint64()
	}
	must("fill", routed.PutBatchU64(ctx, fill, fillVals))
	perShard("fill", u64Split(fill), func(c *CLAM, ix []int) error {
		return c.PutBatchU64(ctx, pick(fill, ix), pick(fillVals, ix))
	})
	check("fill")
	if routed.Stats().Core.Flushes == 0 {
		t.Fatal("fill never flushed; lookups would not reach flash")
	}

	for _, shape := range []struct {
		name string
		want func() int // shard a key must route to, or -1 for any
	}{
		{"uniform", func() int { return -1 }},
		{"hot", func() int {
			if rng.Intn(8) == 0 {
				return -1
			}
			return 0
		}},
		{"single", func() int { return 2 }},
	} {
		u64Key := func() uint64 {
			k := rng.Uint64()
			if sh := shape.want(); sh >= 0 {
				k = k&(1<<62-1) | uint64(sh)<<62
			}
			return k
		}
		byteKey := func() []byte {
			sh := shape.want()
			for {
				k := make([]byte, 12)
				rng.Read(k)
				if sh < 0 || routed.shardIndex(fingerprint(k, routed.fpSeed)) == sh {
					return k
				}
			}
		}
		for round := 0; round < 2; round++ {
			step := func(op string) string { return shape.name + "/" + op }
			keys := make([]uint64, 3000)
			vals := make([]uint64, len(keys))
			for i := range keys {
				keys[i], vals[i] = u64Key(), rng.Uint64()
			}
			must(step("PutBatchU64"), routed.PutBatchU64(ctx, keys, vals))
			perShard(step("PutBatchU64"), u64Split(keys), func(c *CLAM, ix []int) error {
				return c.PutBatchU64(ctx, pick(keys, ix), pick(vals, ix))
			})
			check(step("PutBatchU64"))

			probe := make([]uint64, 2500)
			for i := range probe {
				switch i % 3 {
				case 0:
					probe[i] = keys[rng.Intn(len(keys))]
				case 1:
					probe[i] = fill[rng.Intn(len(fill))]
				default:
					probe[i] = u64Key()
				}
			}
			rv, rok, err := routed.GetBatchU64(ctx, probe)
			must(step("GetBatchU64"), err)
			perShard(step("GetBatchU64"), u64Split(probe), func(c *CLAM, ix []int) error {
				dv, dok, err := c.GetBatchU64(ctx, pick(probe, ix))
				for j, i := range ix {
					if err == nil && (dv[j] != rv[i] || dok[j] != rok[i]) {
						t.Fatalf("%s: key %#x routed (%d,%v), per-shard (%d,%v)", step("GetBatchU64"), probe[i], rv[i], rok[i], dv[j], dok[j])
					}
				}
				return err
			})
			check(step("GetBatchU64"))

			del := pick(keys, []int{1, 7, 30, 31, 500, 1200, 2999})
			del = append(del, probe[:400]...)
			must(step("DeleteBatchU64"), routed.DeleteBatchU64(ctx, del))
			perShard(step("DeleteBatchU64"), u64Split(del), func(c *CLAM, ix []int) error {
				return c.DeleteBatchU64(ctx, pick(del, ix))
			})
			check(step("DeleteBatchU64"))

			bkeys := make([][]byte, 1500)
			bvals := make([][]byte, len(bkeys))
			for i := range bkeys {
				bkeys[i] = byteKey()
				bvals[i] = make([]byte, 8+rng.Intn(56))
				rng.Read(bvals[i])
			}
			must(step("PutBatch"), routed.PutBatch(ctx, bkeys, bvals))
			perShard(step("PutBatch"), byteSplit(bkeys), func(c *CLAM, ix []int) error {
				return c.PutBatch(ctx, pick(bkeys, ix), pick(bvals, ix))
			})
			check(step("PutBatch"))

			bprobe := make([][]byte, 1200)
			for i := range bprobe {
				if i%4 == 3 {
					bprobe[i] = byteKey()
				} else {
					bprobe[i] = bkeys[rng.Intn(len(bkeys))]
				}
			}
			rbv, rbok, err := routed.GetBatch(ctx, bprobe)
			must(step("GetBatch"), err)
			perShard(step("GetBatch"), byteSplit(bprobe), func(c *CLAM, ix []int) error {
				dv, dok, err := c.GetBatch(ctx, pick(bprobe, ix))
				for j, i := range ix {
					if err == nil && (!bytes.Equal(dv[j], rbv[i]) || dok[j] != rbok[i]) {
						t.Fatalf("%s: key %x routed (%x,%v), per-shard (%x,%v)", step("GetBatch"), bprobe[i], rbv[i], rbok[i], dv[j], dok[j])
					}
				}
				return err
			})
			check(step("GetBatch"))

			rin, err := routed.ContainsBatch(ctx, bprobe)
			must(step("ContainsBatch"), err)
			perShard(step("ContainsBatch"), byteSplit(bprobe), func(c *CLAM, ix []int) error {
				din, err := c.ContainsBatch(ctx, pick(bprobe, ix))
				for j, i := range ix {
					if err == nil && din[j] != rin[i] {
						t.Fatalf("%s: key %x routed %v, per-shard %v", step("ContainsBatch"), bprobe[i], rin[i], din[j])
					}
				}
				return err
			})
			check(step("ContainsBatch"))

			bdel := bprobe[:300]
			must(step("DeleteBatch"), routed.DeleteBatch(ctx, bdel))
			perShard(step("DeleteBatch"), byteSplit(bdel), func(c *CLAM, ix []int) error {
				return c.DeleteBatch(ctx, pick(bdel, ix))
			})
			check(step("DeleteBatch"))
		}
	}
}

// TestSingleKeyOpsAllocs is the allocation guard for single-key calls: a
// batch of one runs on stack-held one-element slices and the shard's
// scratch, so a warm store allocates nothing per call on the u64 path or
// for a byte-key existence probe, and Get allocates only the copy of the
// value it returns.
func TestSingleKeyOpsAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts; CI runs this guard in a non-race step")
	}
	base := []Option{WithDevice(IntelSSD), WithFlash(16 << 20), WithMemory(4 << 20), WithSeed(5)}
	c := openCLAMT(t, base...)
	s := openShardedT(t, append(base, WithShards(4))...)
	for _, st := range []struct {
		name string
		s    Store
	}{{"clam", c}, {"sharded", s}} {
		key := []byte("single-key")
		if err := st.s.Put(key, []byte("value")); err != nil {
			t.Fatal(err)
		}
		if err := st.s.PutU64(7, 7); err != nil {
			t.Fatal(err)
		}
		next := uint64(100)
		for _, op := range []struct {
			name string
			want float64
			run  func()
		}{
			{"GetU64", 0, func() { st.s.GetU64(7) }},
			// A few hundred fresh keys fit in one buffer: no flush.
			{"PutU64", 0, func() { next++; st.s.PutU64(next, next) }},
			{"DeleteU64", 0, func() { st.s.DeleteU64(7) }},
			{"Contains", 0, func() { st.s.Contains(key) }},
			{"Get", 1, func() { st.s.Get(key) }},
		} {
			if got := testing.AllocsPerRun(200, op.run); got != op.want {
				t.Errorf("%s: %s allocates %.0f per call, want %.0f", st.name, op.name, got, op.want)
			}
		}
	}
}
