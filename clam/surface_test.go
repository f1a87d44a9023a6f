package clam

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"
	"time"

	"repro/internal/ssd"
	"repro/internal/vclock"
)

// TestStoreSurfaceGolden pins the observable behaviour of every Store
// method on both implementations. A seeded stream calls all 21 methods —
// u64 and byte keys, single and batch calls, existence probes, deletes,
// Flush, Elapse and ResetMetrics, pre-canceled contexts and key/value
// length mismatches — and folds each call's results and error text, the
// virtual clock after it, and every Stats snapshot (%+v) into one FNV-64
// hash per store. A change to any value, counter, latency sample, virtual
// nanosecond or error message moves the hash.
func TestStoreSurfaceGolden(t *testing.T) {
	cases := []struct {
		name string
		open func(t *testing.T) (Store, func() time.Duration)
		want uint64
	}{
		{"clam/ssd-intel/chunk128", func(t *testing.T) (Store, func() time.Duration) {
			c := openCLAMT(t, WithDevice(IntelSSD), WithFlash(1<<20), WithMemory(512<<10),
				WithValueLog(1<<20), WithSeed(21), WithBatchChunk(128))
			return c, c.Clock().Now
		}, 0x988dcd7ae3350dc9},
		{"clam/flash-chip/update-based", func(t *testing.T) (Store, func() time.Duration) {
			c := openCLAMT(t, WithDevice(FlashChip), WithFlash(1<<20), WithMemory(512<<10),
				WithValueLog(1<<20), WithPolicy(UpdateBased), WithSeed(22))
			return c, c.Clock().Now
		}, 0xd8a6b09fec230dda},
		{"sharded4/workers2/chunk100", func(t *testing.T) (Store, func() time.Duration) {
			s := openShardedT(t, WithDevice(IntelSSD), WithFlash(2<<20), WithMemory(1<<20),
				WithValueLog(2<<20), WithShards(4), WithWorkers(2), WithBatchChunk(100),
				WithBufferKB(64), WithSeed(23))
			return s, s.Now
		}, 0xfb3310fe209b9caa},
		{"clam/custom-device/no-value-log", func(t *testing.T) (Store, func() time.Duration) {
			clock := vclock.New()
			c := openCLAMT(t, WithCustomDevice(ssd.New(ssd.IntelX18M(), 1<<20, clock)),
				WithClock(clock), WithFlash(1<<20), WithMemory(512<<10), WithSeed(24))
			return c, c.Clock().Now
		}, 0x5327645e5107b4fa},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st, now := tc.open(t)
			if got := foldStoreSurface(st, now, 1300); got != tc.want {
				t.Errorf("surface hash %#x, want %#x\nfinal stats: %+v", got, tc.want, st.Stats())
			}
		})
	}
}

// foldStoreSurface runs a seeded stream of steps Store calls on st and
// returns the FNV-64 hash of everything the calls returned.
func foldStoreSurface(st Store, now func() time.Duration, steps int) uint64 {
	rng := rand.New(rand.NewSource(1307))
	h := fnv.New64a()
	fold := func(v ...any) { fmt.Fprintln(h, v...) }
	canceled, cancel := context.WithCancel(context.Background())
	cancel()

	u64s := make([]uint64, 6000)
	for i := range u64s {
		u64s[i] = rng.Uint64()
	}
	bkeys := make([][]byte, 4000)
	for i := range bkeys {
		bkeys[i] = make([]byte, 1+rng.Intn(40))
		rng.Read(bkeys[i])
	}
	ukey := func() uint64 { return u64s[rng.Intn(len(u64s))] }
	bkey := func() []byte { return bkeys[rng.Intn(len(bkeys))] }
	bval := func() []byte {
		v := make([]byte, rng.Intn(200))
		rng.Read(v)
		return v
	}
	ctx := func() context.Context {
		if rng.Intn(10) == 0 {
			return canceled
		}
		return context.Background()
	}
	// batchLen spans empty batches, batches of one chunk and batches that
	// cross the 100-, 128- and 512-key chunk boundaries.
	batchLen := func() int {
		switch rng.Intn(4) {
		case 0:
			return rng.Intn(4)
		case 1:
			return rng.Intn(64)
		case 2:
			return rng.Intn(300)
		default:
			return rng.Intn(1200)
		}
	}
	// valueLen is the value count of a put batch: one in twelve is short by
	// one, a length mismatch.
	valueLen := func(n int) int {
		if n > 0 && rng.Intn(12) == 0 {
			return n - 1
		}
		return n
	}
	ukeys := func(n int) []uint64 {
		ks := make([]uint64, n)
		for i := range ks {
			ks[i] = ukey()
		}
		return ks
	}
	bkeyList := func(n int) [][]byte {
		ks := make([][]byte, n)
		for i := range ks {
			ks[i] = bkey()
		}
		return ks
	}

	for step := 0; step < steps; step++ {
		op := rng.Intn(21)
		fold(step, op)
		switch op {
		case 0:
			fold(st.Put(bkey(), bval()))
		case 1:
			v, ok, err := st.Get(bkey())
			fold(v, ok, err)
		case 2:
			fold(st.Delete(bkey()))
		case 3:
			fold(st.Update(bkey(), bval()))
		case 4:
			n := batchLen()
			vs := make([][]byte, valueLen(n))
			for i := range vs {
				vs[i] = bval()
			}
			fold(st.PutBatch(ctx(), bkeyList(n), vs))
		case 5:
			vs, ok, err := st.GetBatch(ctx(), bkeyList(batchLen()))
			fold(vs, ok, err)
		case 6:
			fold(st.DeleteBatch(ctx(), bkeyList(batchLen()/4)))
		case 7:
			fold(st.Contains(bkey()))
		case 8:
			fold(st.ContainsU64(ukey()))
		case 9:
			fold(st.ContainsBatch(ctx(), bkeyList(batchLen())))
		case 10:
			fold(st.PutU64(ukey(), rng.Uint64()))
		case 11:
			fold(st.GetU64(ukey()))
		case 12:
			fold(st.DeleteU64(ukey()))
		case 13:
			fold(st.UpdateU64(ukey(), rng.Uint64()))
		case 14:
			n := batchLen()
			vs := make([]uint64, valueLen(n))
			for i := range vs {
				vs[i] = rng.Uint64()
			}
			fold(st.PutBatchU64(ctx(), ukeys(n), vs))
		case 15:
			fold(st.GetBatchU64(ctx(), ukeys(batchLen())))
		case 16:
			fold(st.DeleteBatchU64(ctx(), ukeys(batchLen()/4)))
		case 17:
			if rng.Intn(4) == 0 {
				fold(st.Flush())
			}
		case 18:
			fold(fmt.Sprintf("%+v", st.Stats()))
		case 19:
			if rng.Intn(8) == 0 {
				st.ResetMetrics()
			}
		case 20:
			st.Elapse(time.Duration(rng.Intn(5000)) * time.Microsecond)
		}
		fold(now())
	}
	fold(fmt.Sprintf("%+v", st.Stats()))
	return h.Sum64()
}
