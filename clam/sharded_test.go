package clam

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/vclock"
)

// openShardedSmall opens the standard test deployment: 32 MB flash, 8 MB
// DRAM, seed 7.
func openShardedSmall(t testing.TB, shards, workers int) *Sharded {
	t.Helper()
	return openShardedT(t, WithDevice(IntelSSD), WithFlash(32<<20), WithMemory(8<<20),
		WithSeed(7), WithShards(shards), WithWorkers(workers))
}

func TestOpenShardedValidation(t *testing.T) {
	base := []Option{WithDevice(IntelSSD), WithFlash(32 << 20), WithMemory(8 << 20)}
	cases := []struct {
		name string
		opts []Option
	}{
		{"non-power-of-two", append(base[:3:3], WithShards(3))},
		{"negative shards", append(base[:3:3], WithShards(-4))},
		{"negative workers", append(base[:3:3], WithShards(4), WithWorkers(-1))},
		{"zero workers", append(base[:3:3], WithShards(4), WithWorkers(0))},
		{"negative workers, unsharded", append(base[:3:3], WithWorkers(-1))},
		{"zero workers, unsharded", append(base[:3:3], WithWorkers(0))},
		{"shared clock", append(base[:3:3], WithShards(4), WithClock(vclock.New()))},
		{"indivisible flash", []Option{WithDevice(IntelSSD), WithFlash(32<<20 + 1), WithMemory(8 << 20), WithShards(4)}},
		{"zero flash", []Option{WithShards(4)}},
		{"zero chunk", append(base[:3:3], WithShards(4), WithBatchChunk(0))},
		{"negative buffer", append(base[:3:3], WithBufferKB(-1))},
		{"zero buffer", append(base[:3:3], WithBufferKB(0))},
		{"negative incarnations", append(base[:3:3], WithMaxIncarnations(-1))},
		{"too many incarnations", append(base[:3:3], WithMaxIncarnations(65))},
		{"unknown policy", append(base[:3:3], WithPolicy(Policy(99)))},
		{"unknown policy, sharded", append(base[:3:3], WithShards(4), WithPolicy(Policy(99)))},
	}
	for _, c := range cases {
		if _, err := Open(c.opts...); err == nil {
			t.Errorf("%s: Open accepted invalid options", c.name)
		}
	}
}

func TestOpenShardedDefaults(t *testing.T) {
	s := openShardedT(t, WithDevice(IntelSSD), WithFlash(32<<20), WithMemory(8<<20), WithShards(8))
	if s.NumShards() != 8 || s.Workers() != 8 {
		t.Fatalf("defaults: shards=%d workers=%d, want 8/8", s.NumShards(), s.Workers())
	}
	// Workers above the shard count are useless; the pool is capped.
	s = openShardedSmall(t, 4, 99)
	if s.Workers() != 4 {
		t.Fatalf("workers not capped at shards: %d", s.Workers())
	}
	// WithShards(1) opens a plain CLAM, the paper's single-instance design.
	one, err := Open(WithDevice(IntelSSD), WithFlash(32<<20), WithMemory(8<<20), WithShards(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, isCLAM := one.(*CLAM); !isCLAM {
		t.Fatalf("WithShards(1) opened %T, want *CLAM", one)
	}
	if err := one.PutU64(^uint64(0), 9); err != nil {
		t.Fatal(err)
	}
	if v, ok, _ := one.GetU64(^uint64(0)); !ok || v != 9 {
		t.Fatalf("1-shard lookup: %d %v", v, ok)
	}
}

func TestShardedRoutesByHighKeyBits(t *testing.T) {
	s := openShardedSmall(t, 8, 8)
	for i := uint64(0); i < 8; i++ {
		if err := s.PutU64(i<<61|12345, i); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		if got := s.Shard(i).Stats().Core.Inserts; got != 1 {
			t.Errorf("shard %d received %d inserts, want exactly 1", i, got)
		}
	}
}

// TestShardedConcurrentShardIsolation hammers each shard from its own
// goroutine. Under `go test -race` this fails if any state — buffers,
// device models, clocks, histograms — leaks across shard boundaries.
func TestShardedConcurrentShardIsolation(t *testing.T) {
	const perG = 3000
	s := openShardedSmall(t, 8, 8)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g uint64) {
			defer wg.Done()
			base := g << 61 // top 3 bits route to shard g
			for i := uint64(0); i < perG; i++ {
				k := base | (i + 1)
				if err := s.PutU64(k, i); err != nil {
					errs <- err
					return
				}
				if v, ok, err := s.GetU64(k); err != nil || !ok || v != i {
					errs <- err
					return
				}
				if i%5 == 0 {
					if err := s.DeleteU64(k); err != nil {
						errs <- err
						return
					}
				}
			}
		}(uint64(g))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Core.Inserts != 8*perG {
		t.Fatalf("merged inserts = %d, want %d", st.Core.Inserts, 8*perG)
	}
	if st.Core.Deletes != 8*(perG/5) {
		t.Fatalf("merged deletes = %d, want %d", st.Core.Deletes, 8*(perG/5))
	}
	if st.InsertLatency.Count != 8*perG || st.LookupLatency.Count != 8*perG {
		t.Fatalf("merged histogram counts: %d inserts, %d lookups", st.InsertLatency.Count, st.LookupLatency.Count)
	}
	for g := uint64(0); g < 8; g++ {
		k := g<<61 | perG // not a multiple of 5 +1, survives deletion
		if v, ok, _ := s.GetU64(k); !ok || v != perG-1 {
			t.Fatalf("shard %d lost key %#x: (%d, %v)", g, k, v, ok)
		}
	}
}

// TestShardedConcurrentOpsAndStats races random-key operations against
// concurrent Stats, Flush and Now calls: the aggregation path must take
// every shard lock correctly or -race flags it.
func TestShardedConcurrentOpsAndStats(t *testing.T) {
	s := openShardedSmall(t, 4, 4)
	var ops sync.WaitGroup
	done := make(chan struct{})
	go func() {
		// Aggregate continuously while operations are in flight; Stats,
		// Now and Flush must lock each shard correctly or -race fires.
		for {
			select {
			case <-done:
				return
			default:
				_ = s.Stats()
				_ = s.Now()
				_ = s.Flush()
			}
		}
	}()
	for g := 0; g < 6; g++ {
		ops.Add(1)
		go func(g int64) {
			defer ops.Done()
			rng := rand.New(rand.NewSource(g))
			for i := 0; i < 4000; i++ {
				k := rng.Uint64()
				switch i % 4 {
				case 0, 1:
					s.PutU64(k, uint64(i))
				case 2:
					s.GetU64(k)
				case 3:
					s.DeleteU64(k)
				}
			}
		}(int64(g))
	}
	ops.Wait()
	close(done)
	st := s.Stats()
	if st.Core.Inserts != 6*2000 {
		t.Fatalf("inserts = %d, want %d", st.Core.Inserts, 6*2000)
	}
}

// TestCLAMConcurrentOpsAndStats exercises the single-mutex CLAM path the
// same way, protecting the documented "safe for concurrent use" contract.
func TestCLAMConcurrentOpsAndStats(t *testing.T) {
	c := openSmall(t, IntelSSD)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				_ = c.Stats()
			}
		}
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(g))
			for i := 0; i < 3000; i++ {
				k := rng.Uint64()
				c.PutU64(k, uint64(i))
				c.GetU64(k)
			}
		}(int64(g))
	}
	wg.Wait()
	close(stop)
	if st := c.Stats(); st.Core.Inserts != 4*3000 {
		t.Fatalf("inserts = %d, want %d", st.Core.Inserts, 4*3000)
	}
}

func TestShardedBatchMatchesSingleOps(t *testing.T) {
	batched := openShardedSmall(t, 4, 4)
	single := openShardedSmall(t, 4, 1)

	rng := rand.New(rand.NewSource(99))
	const n = 20000
	keys := make([]uint64, n)
	vals := make([]uint64, n)
	for i := range keys {
		keys[i] = rng.Uint64()
		vals[i] = rng.Uint64()
	}
	if err := batched.PutBatchU64(context.Background(), keys, vals); err != nil {
		t.Fatal(err)
	}
	for i := range keys {
		if err := single.PutU64(keys[i], vals[i]); err != nil {
			t.Fatal(err)
		}
	}

	// Mix hits and misses.
	probe := make([]uint64, 0, 3000)
	for i := 0; i < 2000; i++ {
		probe = append(probe, keys[rng.Intn(n)])
	}
	for i := 0; i < 1000; i++ {
		probe = append(probe, rng.Uint64())
	}
	bv, bok, err := batched.GetBatchU64(context.Background(), probe)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range probe {
		sv, sok, err := single.GetU64(k)
		if err != nil {
			t.Fatal(err)
		}
		if bv[i] != sv || bok[i] != sok {
			t.Fatalf("probe %d (%#x): batch (%d,%v) vs single (%d,%v)", i, k, bv[i], bok[i], sv, sok)
		}
	}

	// Deletes via batch must be equivalent too.
	del := keys[:500]
	if err := batched.DeleteBatchU64(context.Background(), del); err != nil {
		t.Fatal(err)
	}
	dv, dok, err := batched.GetBatchU64(context.Background(), del)
	if err != nil {
		t.Fatal(err)
	}
	for i := range del {
		if dok[i] {
			t.Fatalf("deleted key %#x still found (=%d)", del[i], dv[i])
		}
	}
}

func TestShardedBatchPreservesPerShardOrder(t *testing.T) {
	s := openShardedSmall(t, 4, 4)
	// Three writes to the same key inside one batch: the last one wins,
	// because a shard group executes in input order on a single worker.
	k := uint64(0xdeadbeef) << 32
	if err := s.PutBatchU64(context.Background(), []uint64{k, k, k}, []uint64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if v, ok, _ := s.GetU64(k); !ok || v != 3 {
		t.Fatalf("lookup after dup-key batch: (%d, %v), want (3, true)", v, ok)
	}
}

func TestShardedBatchLengthMismatch(t *testing.T) {
	s := openShardedSmall(t, 2, 2)
	if err := s.PutBatchU64(context.Background(), make([]uint64, 3), make([]uint64, 2)); err == nil {
		t.Fatal("InsertBatch accepted mismatched lengths")
	}
}

// TestShardedConcurrentBatches issues overlapping batch calls from many
// goroutines; the worker pools of concurrent batches contend on the same
// shard locks, which -race verifies is safe.
func TestShardedConcurrentBatches(t *testing.T) {
	s := openShardedSmall(t, 8, 4)
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(1000 + g))
			keys := make([]uint64, 500)
			vals := make([]uint64, 500)
			for round := 0; round < 10; round++ {
				for i := range keys {
					keys[i] = rng.Uint64()
					vals[i] = rng.Uint64()
				}
				if err := s.PutBatchU64(context.Background(), keys, vals); err != nil {
					t.Error(err)
					return
				}
				if _, _, err := s.GetBatchU64(context.Background(), keys); err != nil {
					t.Error(err)
					return
				}
			}
		}(int64(g))
	}
	wg.Wait()
	if st := s.Stats(); st.Core.Inserts != 6*10*500 {
		t.Fatalf("inserts = %d, want %d", st.Core.Inserts, 6*10*500)
	}
}

func TestShardedFlushQuiesces(t *testing.T) {
	s := openShardedSmall(t, 4, 4)
	rng := rand.New(rand.NewSource(5))
	keys := make([]uint64, 10000)
	vals := make([]uint64, len(keys))
	for i := range keys {
		keys[i], vals[i] = rng.Uint64(), uint64(i)
	}
	if err := s.PutBatchU64(context.Background(), keys, vals); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Device.Writes == 0 {
		t.Fatal("flush wrote nothing to any shard device")
	}
	vs, ok, err := s.GetBatchU64(context.Background(), keys)
	if err != nil {
		t.Fatal(err)
	}
	for i := range keys {
		if !ok[i] || vs[i] != vals[i] {
			t.Fatalf("post-flush lookup %d: (%d, %v)", i, vs[i], ok[i])
		}
	}
}

func TestShardedPerShardVirtualClocks(t *testing.T) {
	s := openShardedSmall(t, 4, 4)
	// Work lands only on shard 0; its clock must advance while others idle.
	for i := uint64(1); i <= 5000; i++ {
		if err := s.PutU64(i, i); err != nil { // small keys: high bits zero
			t.Fatal(err)
		}
	}
	if t0 := s.Shard(0).Clock().Now(); t0 == 0 {
		t.Fatal("shard 0 clock did not advance")
	}
	for i := 1; i < 4; i++ {
		if ti := s.Shard(i).Clock().Now(); ti != 0 {
			t.Fatalf("idle shard %d clock advanced to %v", i, ti)
		}
	}
	if s.Now() != s.Shard(0).Clock().Now() {
		t.Fatal("Now() is not the max shard clock")
	}
}

// --- chunked batch router ---

// TestRouterTinyChunksEquivalence forces one key per chunk (BatchChunk 1)
// and checks batch results against per-key ops, so the chunk loop runs
// thousands of times per batch on concurrent workers under -race.
func TestRouterTinyChunksEquivalence(t *testing.T) {
	s := openShardedT(t, WithDevice(IntelSSD), WithFlash(32<<20), WithMemory(8<<20),
		WithSeed(7), WithShards(8), WithWorkers(4), WithBatchChunk(1))
	ref := openShardedSmall(t, 8, 1)
	rng := rand.New(rand.NewSource(44))
	keys := make([]uint64, 4000)
	vals := make([]uint64, len(keys))
	for i := range keys {
		keys[i], vals[i] = rng.Uint64(), rng.Uint64()
	}
	if err := s.PutBatchU64(context.Background(), keys, vals); err != nil {
		t.Fatal(err)
	}
	for i := range keys {
		if err := ref.PutU64(keys[i], vals[i]); err != nil {
			t.Fatal(err)
		}
	}
	v, ok, err := s.GetBatchU64(context.Background(), keys)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		rv, rok, _ := ref.GetU64(k)
		if v[i] != rv || ok[i] != rok {
			t.Fatalf("key %#x: (%d,%v) vs ref (%d,%v)", k, v[i], ok[i], rv, rok)
		}
	}
}

// TestRouterSkewedBatch routes ~70% of a batch to one shard and checks
// results and ordering stay correct.
func TestRouterSkewedBatch(t *testing.T) {
	s := openShardedSmall(t, 8, 8)
	rng := rand.New(rand.NewSource(45))
	const n = 30000
	keys := make([]uint64, n)
	vals := make([]uint64, n)
	for i := range keys {
		if rng.Float64() < 0.7 {
			keys[i] = rng.Uint64() >> 3 // top 3 bits zero: shard 0
		} else {
			keys[i] = rng.Uint64()
		}
		vals[i] = uint64(i)
	}
	if err := s.PutBatchU64(context.Background(), keys, vals); err != nil {
		t.Fatal(err)
	}
	v, ok, err := s.GetBatchU64(context.Background(), keys)
	if err != nil {
		t.Fatal(err)
	}
	last := make(map[uint64]uint64, n)
	for i, k := range keys {
		last[k] = vals[i]
	}
	for i, k := range keys {
		if !ok[i] || v[i] != last[k] {
			t.Fatalf("key %#x: (%d,%v), want (%d,true): same-shard chunk order violated?",
				k, v[i], ok[i], last[k])
		}
	}
}

// TestLookupBatchMatchesPerKeyPath cross-checks the pipeline path against
// a loop of public GetU64 calls on the same instance (FIFO policy: lookups
// don't mutate state, so both paths may run back to back).
func TestLookupBatchMatchesPerKeyPath(t *testing.T) {
	s := openShardedSmall(t, 8, 4)
	rng := rand.New(rand.NewSource(46))
	keys := make([]uint64, 20000)
	vals := make([]uint64, len(keys))
	for i := range keys {
		keys[i], vals[i] = rng.Uint64(), rng.Uint64()
	}
	if err := s.PutBatchU64(context.Background(), keys, vals); err != nil {
		t.Fatal(err)
	}
	probe := make([]uint64, 5000)
	for i := range probe {
		if i%3 == 0 {
			probe[i] = rng.Uint64()
		} else {
			probe[i] = keys[rng.Intn(len(keys))]
		}
	}
	bv, bok, err := s.GetBatchU64(context.Background(), probe)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range probe {
		v, ok, err := s.GetU64(k)
		if err != nil {
			t.Fatal(err)
		}
		if v != bv[i] || ok != bok[i] {
			t.Fatalf("probe %d: per-key (%d,%v) vs pipeline (%d,%v)", i, v, ok, bv[i], bok[i])
		}
	}
}

func TestOpenShardedBatchChunkValidation(t *testing.T) {
	if _, err := Open(WithDevice(IntelSSD), WithFlash(32<<20), WithMemory(8<<20),
		WithShards(4), WithBatchChunk(-1)); err == nil {
		t.Fatal("negative WithBatchChunk accepted")
	}
	s := openShardedT(t, WithDevice(IntelSSD), WithFlash(32<<20), WithMemory(8<<20), WithShards(4))
	if s.chunk != defaultBatchChunk {
		t.Fatalf("default chunk = %d, want %d", s.chunk, defaultBatchChunk)
	}
}
