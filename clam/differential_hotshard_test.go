package clam

import (
	"math/rand"
	"testing"
)

// The hot-shard differential regime: the lookup and insert oracles of
// differential_test.go / differential_insert_test.go re-run over hot-shard
// Zipf streams through a multi-worker Sharded store with a small chunk.
// Key-for-key results and every core counter must equal the per-key
// instance exactly, per shard, under -race: the worker pool and chunking
// change wall-clock time only.

// genHotShardOps builds a deterministic op stream whose key popularity is
// Zipf and whose hot mass lands on shard 0 of a 4-shard deployment: the
// first hotFrac of the key universe — the heavy ranks — has its top two
// key bits cleared. hotFrac 1.0 makes every batch single-shard: one
// non-empty group.
func genHotShardOps(seed int64, nOps, nKeys int, hotFrac, pLookup, pDelete, pFlush float64) []op {
	rng := rand.New(rand.NewSource(seed))
	keys := make([]uint64, nKeys)
	hot := int(float64(nKeys) * hotFrac)
	for i := range keys {
		k := rng.Uint64()
		if i < hot {
			k &= 1<<62 - 1 // clear the top 2 bits: shard 0 of 4
		}
		keys[i] = k
	}
	z := rand.NewZipf(rng, 1.2, 1, uint64(nKeys-1))
	ops := make([]op, 0, nOps)
	for i := 0; i < nOps; i++ {
		k := keys[z.Uint64()]
		switch r := rng.Float64(); {
		case r < pFlush:
			ops = append(ops, op{kind: opFlush})
		case r < pFlush+pDelete:
			ops = append(ops, op{kind: opDelete, key: k})
		case r < pFlush+pDelete+pLookup:
			ops = append(ops, op{kind: opLookup, key: k})
		default:
			ops = append(ops, op{kind: opInsert, key: k, val: rng.Uint64()})
		}
	}
	return ops
}

// hotShardStores opens the per-key reference Sharded and its batched twin:
// same shape, but the twin cuts batches into 256-key chunks, so a hot
// shard's run spans several chunks while its 4 workers drain the other
// shards.
func hotShardStores(t *testing.T, base []Option) (serial, batched *Sharded) {
	t.Helper()
	base = base[:len(base):len(base)]
	serial = openShardedT(t, append(base, WithShards(4), WithWorkers(4))...)
	batched = openShardedT(t, append(base, WithShards(4), WithWorkers(4), WithBatchChunk(256))...)
	return serial, batched
}

// checkShardCountersEqual asserts per-shard core-counter equality — a
// stronger pin than the aggregate: no shard may have done different
// structural work, whatever worker executed it.
func checkShardCountersEqual(t *testing.T, name string, serial, batched *Sharded) {
	t.Helper()
	for i := 0; i < serial.NumShards(); i++ {
		sc, bc := serial.Shard(i).Stats().Core, batched.Shard(i).Stats().Core
		if sc != bc {
			t.Fatalf("%s: shard %d core counters diverge:\nserial  %+v\nbatched %+v", name, i, sc, bc)
		}
	}
}

func TestDifferentialHotShardLookups(t *testing.T) {
	for _, tc := range []struct {
		name    string
		hotFrac float64
	}{
		{"hot85", 0.85},      // skewed across shards
		{"singleShard", 1.0}, // every batch one shard: one non-empty group
	} {
		t.Run(tc.name, func(t *testing.T) {
			ops := genHotShardOps(9001, 40000, 20000, tc.hotFrac, 0.30, 0.08, 0.0002)
			base := []Option{WithDevice(IntelSSD), WithFlash(16 << 20), WithMemory(4 << 20),
				WithPolicy(FIFO), WithSeed(11)}
			serial, batched := hotShardStores(t, base)
			// Lookup windows span several chunks of the hot shard's run.
			applyBatchedDifferentialWindow(t, tc.name, serial, batched, ops, true, 1536)
			checkLookupCountersEqual(t, tc.name, serial, batched)
			checkShardCountersEqual(t, tc.name, serial, batched)
		})
	}
}

func TestDifferentialHotShardInserts(t *testing.T) {
	t.Run("strict", func(t *testing.T) {
		ops := genHotShardOps(9102, 40000, 20000, 0.85, 0.15, 0.06, 0.0002)
		base := []Option{WithDevice(IntelSSD), WithFlash(16 << 20), WithMemory(4 << 20),
			WithPolicy(FIFO), WithSeed(11)}
		serial, batched := hotShardStores(t, base)
		oracle := applyInsertDifferentialWindow(t, "hot-strict", serial, batched, ops, true, 1536)
		verifyInsertFinal(t, "hot-strict", serial, batched, oracle, 9102)
		checkInsertCountersEqual(t, "hot-strict", serial, batched)
		checkShardCountersEqual(t, "hot-strict", serial, batched)
	})
	t.Run("eviction", func(t *testing.T) {
		// Tiny instances: the hot shard's incarnation ring wraps many
		// times, so its chunks drive flush cascades and evictions.
		ops := genHotShardOps(9203, 60000, 8000, 0.85, 0.12, 0.10, 0.001)
		base := []Option{WithDevice(IntelSSD), WithFlash(1 << 20), WithMemory(256 << 10),
			WithBufferKB(8), WithPolicy(FIFO), WithSeed(23)}
		serial, batched := hotShardStores(t, base)
		oracle := applyInsertDifferentialWindow(t, "hot-evict", serial, batched, ops, false, 1536)
		verifyInsertFinal(t, "hot-evict", serial, batched, oracle, 9203)
		checkInsertCountersEqual(t, "hot-evict", serial, batched)
		checkShardCountersEqual(t, "hot-evict", serial, batched)
		if batched.Stats().Core.Evictions == 0 {
			t.Fatal("eviction regime never evicted; retune the test sizes")
		}
	})
}
