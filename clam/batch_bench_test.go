package clam

import (
	"context"
	"math/rand"
	"runtime"
	"testing"
	"time"
)

// Benchmarks for the batched lookup pipeline against the per-key baseline
// (one blocking GetU64 per key, the paper's design point). The workload is
// flash-heavy: the store is warmed past eviction onset so most hits
// require at least one incarnation page probe, which is where batching
// (lock amortization, page dedupe, overlapped virtual I/O) pays.

// openBatchBench builds an 8-shard/8-worker instance small enough to warm
// past eviction onset quickly: 16 MB of flash = 512k entry capacity, warmed
// with 700k distinct keys so the incarnation rings wrap.
func openBatchBench(b *testing.B) (*Sharded, []uint64) {
	b.Helper()
	s := openShardedT(b, WithDevice(IntelSSD), WithFlash(16<<20), WithMemory(4<<20),
		WithSeed(7), WithShards(8), WithWorkers(8))
	rng := rand.New(rand.NewSource(60))
	const nKeys = 700000
	universe := make([]uint64, nKeys)
	vals := make([]uint64, nKeys)
	for i := range universe {
		universe[i] = rng.Uint64()
		vals[i] = uint64(i)
	}
	const chunk = 16384
	for at := 0; at < nKeys; at += chunk {
		end := min(at+chunk, nKeys)
		if err := s.PutBatchU64(context.Background(), universe[at:end], vals[at:end]); err != nil {
			b.Fatal(err)
		}
	}
	if s.Stats().Core.Evictions == 0 {
		b.Fatal("warm-up did not reach the eviction regime")
	}
	return s, universe
}

// measureLookups times fn, best of 3 (robust against scheduler noise).
func measureLookups(b *testing.B, fn func()) time.Duration {
	b.Helper()
	best := time.Duration(0)
	for rep := 0; rep < 3; rep++ {
		start := time.Now()
		fn()
		if d := time.Since(start); best == 0 || d < best {
			best = d
		}
	}
	return best
}

// BenchmarkLookupBatchVsSerialLoop compares the pipeline against the plain
// single-caller per-key Lookup loop — the paper's blocking design point —
// on the flash-heavy uniform workload. On a multi-core host the router adds
// up-to-min(shards, cores) parallel scaling on top of the batching gain
// this benchmark shows at any core count.
func BenchmarkLookupBatchVsSerialLoop(b *testing.B) {
	s, universe := openBatchBench(b)
	rng := rand.New(rand.NewSource(61))
	probes := make([]uint64, 65536)
	for i := range probes {
		probes[i] = universe[rng.Intn(len(universe))]
	}
	b.ResetTimer()
	var speedup float64
	for i := 0; i < b.N; i++ {
		loop := measureLookups(b, func() {
			for _, k := range probes {
				if _, _, err := s.GetU64(k); err != nil {
					b.Fatal(err)
				}
			}
		})
		pipeline := measureLookups(b, func() {
			if _, _, err := s.GetBatchU64(context.Background(), probes); err != nil {
				b.Fatal(err)
			}
		})
		speedup = loop.Seconds() / pipeline.Seconds()
		b.ReportMetric(float64(len(probes))/pipeline.Seconds(), "pipeline_ops/s(wall)")
		b.ReportMetric(float64(len(probes))/loop.Seconds(), "loop_ops/s(wall)")
	}
	b.ReportMetric(speedup, "speedup_x")
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "gomaxprocs")
}
