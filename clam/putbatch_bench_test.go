package clam

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/hashutil"
)

// The insert-batch benchmarks compare the write-side pipeline against a
// per-key PutU64 loop on identically configured sharded stores, in wall
// clock.

func putBenchStore(b *testing.B) Store {
	b.Helper()
	return openShardedT(b, WithDevice(IntelSSD), WithFlash(16<<20), WithMemory(4<<20),
		WithBufferKB(8), WithFilterBitsPerEntry(16), WithShards(8), WithBatchChunk(1<<16))
}

func putBenchKeys(n int) []uint64 {
	rng := rand.New(rand.NewSource(9))
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = hashutil.Mix64(uint64(rng.Int63n(400000)) + 1)
	}
	return keys
}

func BenchmarkPutBatchU64(b *testing.B) {
	st := putBenchStore(b)
	keys := putBenchKeys(1 << 15)
	vals := make([]uint64, len(keys))
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := st.PutBatchU64(ctx, keys, vals); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(keys)), "keys/op")
}

func BenchmarkPutU64SerialLoop(b *testing.B) {
	st := putBenchStore(b)
	keys := putBenchKeys(1 << 15)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, k := range keys {
			if err := st.PutU64(k, 1); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(len(keys)), "keys/op")
}

// BenchmarkPutGetBytesSerialLoop times the per-key byte path on one
// unsharded CLAM shaped like perfbench's bytes-serial workload (16 MiB
// flash, 4 MiB memory, 256 MiB value log, 20-byte keys, 256-byte values),
// prefilled through 256-key PutBatch calls. Each sub-benchmark op is one
// single-key call, so ns/op is the wall cost of a batch of one.
func BenchmarkPutGetBytesSerialLoop(b *testing.B) {
	const (
		nKeys    = 1 << 16
		prefill  = 256
		keyBytes = 20
		valBytes = 256
	)
	open := func(b *testing.B) (*CLAM, [][]byte, [][]byte) {
		b.Helper()
		c := openCLAMT(b, WithDevice(IntelSSD), WithFlash(16<<20), WithMemory(4<<20),
			WithValueLog(256<<20))
		rng := rand.New(rand.NewSource(11))
		keys, vals := make([][]byte, nKeys), make([][]byte, nKeys)
		for i := range keys {
			keys[i], vals[i] = make([]byte, keyBytes), make([]byte, valBytes)
			rng.Read(keys[i])
			rng.Read(vals[i])
		}
		for at := 0; at < nKeys; at += prefill {
			if err := c.PutBatch(context.Background(), keys[at:at+prefill], vals[at:at+prefill]); err != nil {
				b.Fatal(err)
			}
		}
		b.ResetTimer()
		return c, keys, vals
	}
	b.Run("Put", func(b *testing.B) {
		c, keys, vals := open(b)
		for i := 0; i < b.N; i++ {
			if err := c.Put(keys[i%nKeys], vals[(i+1)%nKeys]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Get", func(b *testing.B) {
		c, keys, _ := open(b)
		for i := 0; i < b.N; i++ {
			if _, _, err := c.Get(keys[i%nKeys]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("GetU64", func(b *testing.B) {
		c, _, _ := open(b)
		for i := 0; i < b.N; i++ {
			if _, _, err := c.GetU64(hashutil.Mix64(uint64(i % nKeys))); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("PutU64", func(b *testing.B) {
		c, _, _ := open(b)
		for i := 0; i < b.N; i++ {
			if err := c.PutU64(hashutil.Mix64(uint64(i)), uint64(i)); err != nil {
				b.Fatal(err)
			}
		}
	})
}
