package main

import (
	"encoding/binary"
	"math/rand/v2"

	"repro/internal/hashutil"
)

// workload is one named input set of the benchmark. Every workload is a
// closed loop with one client: the next Store call is issued only after
// the previous one returned.
type workload struct {
	name string

	shards  int   // 1 opens a single CLAM; more opens a Sharded store
	workers int   // WithWorkers for sharded stores
	flash   int64 // WithFlash, total across shards
	memory  int64 // WithMemory, total across shards
	vlog    int64 // WithValueLog; 0 means the store default

	batch      int // keys per Store call in the measured phase (1 = per-key calls)
	prefill    int // entries written during set-up
	prefillBat int // keys per set-up PutBatch call
	virtCalls  int // calls in the fixed prefix the virtual metrics cover
	recent     int // lookups of written keys draw from the last recent writes

	// noEviction requires set-up to leave every prefilled key on the
	// store, so that every drawn prefilled key must be found.
	noEviction bool

	// next fills o with measured call number c of the stream.
	next func(s *stream, o *op, c int)
}

const (
	mib = 1 << 20

	lsr      = 0.4 // lookup success rate the lookup draws aim at
	zipfS    = 1.1 // Zipf exponent of lookup-zipf's popularity
	keyBytes = 20
	valBytes = 256
)

// workloads are the benchmark's input sets; README.md and BENCHMARK.json
// say why each exists.
var workloads = []*workload{
	{
		// Read side only: router, phase A (cuckoo buffer, Bloom bank,
		// memo) and device reads; no flushes, no value log.
		name:   "lookup-zipf",
		shards: 8, workers: 2, flash: 64 * mib, memory: 16 * mib,
		batch: 1024, prefill: 2_000_000, prefillBat: 1024, virtCalls: 3000,
		noEviction: true,
		next:       nextLookupZipf,
	},
	{
		// Write side through the same router and core: flushes,
		// WriteBatch, FTL, Bloom rotation and FIFO eviction.
		name:   "ingest-evict",
		shards: 8, workers: 2, flash: 64 * mib, memory: 16 * mib,
		batch: 1024, prefill: 2_000_000, prefillBat: 1024, virtCalls: 4000,
		recent: 1 << 18,
		next:   nextIngestEvict,
	},
	{
		// Single-key byte API with no router or batch memo:
		// fingerprints, full-key checks and the value log.
		name:   "bytes-serial",
		shards: 1, flash: 16 * mib, memory: 4 * mib, vlog: 256 * mib,
		batch: 1, prefill: 1_000_000, prefillBat: 256, virtCalls: 600_000,
		recent: 1 << 18,
		next:   nextBytesSerial,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// opKind names the Store entry point a call uses.
type opKind uint8

const (
	getU64Batch opKind = iota
	putU64Batch
	getBytes
	putBytes
	putBytesBatch
)

func (k opKind) isPut() bool { return k == putU64Batch || k == putBytes || k == putBytesBatch }

// expect is what a lookup of one key must return.
type expect uint8

const (
	mustHit  expect = iota // written, not evictable yet: found, with the value written
	mustMiss               // never written: not found
)

// op is one Store call. Buffers are reused from call to call.
type op struct {
	kind  opKind
	keys  []uint64 // u64 keys, or the stream indices of byte keys
	vals  []uint64
	want  []expect
	bkeys [][]byte
	bvals [][]byte
}

// stream generates a workload's calls from its seed. The same seed gives
// the same calls, so a replay regenerates rather than records them.
type stream struct {
	w     *workload
	salt  uint64
	rng   *rand.Rand
	zHit  *rand.Zipf
	zMiss *rand.Zipf
	hot   [][]uint32 // prefilled indices by shard, for rank placement
	shift uint       // key to shard
	fresh uint64     // next never-written key index
	kbuf  []byte     // backing store for byte keys and values of one call
}

// Key indices below absentBase are written by the stream; indices at or
// above it never are, so a lookup of one must miss.
const absentBase = 1 << 62

func newStream(w *workload, seed uint64) *stream {
	return &stream{
		w:     w,
		salt:  hashutil.Mix64(seed ^ 0x5eed_ba5e_0dd5_1dea),
		rng:   rand.New(rand.NewPCG(seed, 0xc1a5_bea7)),
		fresh: uint64(w.prefill),
	}
}

// initZipf builds the popularity state of lookup-zipf's first call.
func (s *stream) initZipf() {
	s.zHit = rand.NewZipf(s.rng, zipfS, 1, uint64(s.w.prefill-1))
	s.zMiss = rand.NewZipf(s.rng, zipfS, 1, uint64(s.w.prefill*3/2-1))
	s.shift = shardShift(s.w.shards)
	s.hot = make([][]uint32, s.w.shards)
	for i := range uint32(s.w.prefill) {
		sh := s.shard(s.key(uint64(i)))
		s.hot[sh] = append(s.hot[sh], i)
	}
}

func (s *stream) shard(key uint64) uint64 { return key >> s.shift }

// Popularity ranks are placed on shards round-robin: rank r's key lives on
// shard r mod shards, so every seed gives the hottest shard the same share
// of the lookups and only the keys themselves change.

// hitIndex is the prefilled index of popularity rank r. Ranks map into
// the first three quarters of the shard's prefill order, which set-up has
// flushed for certain, so no seed finds a hot key still in a DRAM buffer.
func (s *stream) hitIndex(r uint64) uint64 {
	n := uint64(len(s.hot))
	l := s.hot[r%n]
	// 1_000_003 is prime, so the multiple scatters consecutive ranks over
	// the shard's prefill order.
	return uint64(l[(r/n*1_000_003)%uint64(len(l)*3/4)])
}

// missIndex is the never-written index of popularity rank r: the first
// index from absentBase + r·1024 whose key lives on shard r mod shards.
func (s *stream) missIndex(r uint64) uint64 {
	want := r % uint64(s.w.shards)
	i := absentBase + r*1024
	for s.shard(s.key(i)) != want {
		i++
	}
	return i
}

// key maps a stream index to a u64 key. Mix64 is a bijection, so distinct
// indices give distinct, uniformly spread keys (the sharded router routes
// by the top key bits).
func (s *stream) key(i uint64) uint64 { return hashutil.Mix64(i ^ s.salt) }

// valueOf is the u64 value the stream writes under key.
func valueOf(key uint64) uint64 { return hashutil.Mix64(key ^ 0x7a11_e5a1_7c0d_e123) }

// byteKey writes the 20-byte key of stream index i into dst.
func (s *stream) byteKey(i uint64, dst []byte) {
	w := s.key(i)
	binary.LittleEndian.PutUint64(dst[0:], w)
	binary.LittleEndian.PutUint64(dst[8:], hashutil.Mix64(w+1))
	binary.LittleEndian.PutUint32(dst[16:], uint32(hashutil.Mix64(w+2)))
}

// byteValue writes the 256-byte value stored under stream index i.
func (s *stream) byteValue(i uint64, dst []byte) {
	w := s.key(i)
	for j := 0; j < len(dst); j += 8 {
		binary.LittleEndian.PutUint64(dst[j:], hashutil.Mix64(w^uint64(j)*0x9e3779b97f4a7c15))
	}
}

// reset empties o for a call of the given kind.
func (o *op) reset(kind opKind) {
	o.kind = kind
	o.keys = o.keys[:0]
	o.vals = o.vals[:0]
	o.want = o.want[:0]
	o.bkeys = o.bkeys[:0]
	o.bvals = o.bvals[:0]
}

// addU64Put appends a put of fresh stream index i.
func (s *stream) addU64Put(o *op, i uint64) {
	k := s.key(i)
	o.keys = append(o.keys, k)
	o.vals = append(o.vals, valueOf(k))
}

// addU64Get appends a lookup of stream index i.
func (s *stream) addU64Get(o *op, i uint64, want expect) {
	o.keys = append(o.keys, s.key(i))
	o.want = append(o.want, want)
}

// addBytes appends the byte key (and, for puts, value) of stream index i.
// o.keys records the index, from which the check regenerates the value.
func (s *stream) addBytes(o *op, i uint64, put bool, want expect) {
	need := keyBytes
	if put {
		need += valBytes
	}
	if cap(s.kbuf)-len(s.kbuf) < need {
		s.kbuf = make([]byte, 0, max(need, 256<<10))
	}
	b := s.kbuf[len(s.kbuf) : len(s.kbuf)+need]
	s.kbuf = s.kbuf[:len(s.kbuf)+need]
	s.byteKey(i, b[:keyBytes])
	o.keys = append(o.keys, i)
	o.bkeys = append(o.bkeys, b[:keyBytes:keyBytes])
	if put {
		s.byteValue(i, b[keyBytes:])
		o.bvals = append(o.bvals, b[keyBytes:])
	} else {
		o.want = append(o.want, want)
	}
}

// prefillCall fills o with set-up call number c and reports whether one
// was left: the prefill writes stream indices [0, prefill) in order.
func (s *stream) prefillCall(o *op, c int) bool {
	lo := c * s.w.prefillBat
	if lo >= s.w.prefill {
		return false
	}
	hi := min(lo+s.w.prefillBat, s.w.prefill)
	s.kbuf = s.kbuf[:0]
	if s.w.vlog > 0 {
		o.reset(putBytesBatch)
		for i := lo; i < hi; i++ {
			s.addBytes(o, uint64(i), true, mustHit)
		}
		return true
	}
	o.reset(putU64Batch)
	for i := lo; i < hi; i++ {
		s.addU64Put(o, uint64(i))
	}
	return true
}

// nextLookupZipf: a batch of lookups; each key is prefilled with
// probability lsr. Prefilled and absent keys each follow Zipf(1.1)
// popularity over their own range.
func nextLookupZipf(s *stream, o *op, _ int) {
	if s.hot == nil {
		s.initZipf()
	}
	o.reset(getU64Batch)
	for range s.w.batch {
		if s.rng.Float64() < lsr {
			s.addU64Get(o, s.hitIndex(s.zHit.Uint64()), mustHit)
		} else {
			s.addU64Get(o, s.missIndex(s.zMiss.Uint64()), mustMiss)
		}
	}
}

// nextIngestEvict: four batches of fresh puts, then one lookup batch that
// draws recently written keys with probability lsr and absent ones
// otherwise. Recent means among the last w.recent writes, far inside the
// store's capacity, so FIFO eviction cannot have dropped them.
func nextIngestEvict(s *stream, o *op, c int) {
	if c%5 != 4 {
		o.reset(putU64Batch)
		for range s.w.batch {
			s.addU64Put(o, s.fresh)
			s.fresh++
		}
		return
	}
	o.reset(getU64Batch)
	for range s.w.batch {
		if s.rng.Float64() < lsr {
			s.addU64Get(o, s.fresh-1-s.rng.Uint64N(uint64(s.w.recent)), mustHit)
		} else {
			s.addU64Get(o, absentBase+s.rng.Uint64N(1<<40), mustMiss)
		}
	}
}

// nextBytesSerial: one Put of a fresh key or one Get, 50/50; a Get draws
// a recently written key with probability lsr and an absent one otherwise.
func nextBytesSerial(s *stream, o *op, _ int) {
	s.kbuf = s.kbuf[:0]
	if s.rng.Uint64()&1 == 0 {
		o.reset(putBytes)
		s.addBytes(o, s.fresh, true, mustHit)
		s.fresh++
		return
	}
	o.reset(getBytes)
	if s.rng.Float64() < lsr {
		s.addBytes(o, s.fresh-1-s.rng.Uint64N(uint64(s.w.recent)), false, mustHit)
	} else {
		s.addBytes(o, absentBase+s.rng.Uint64N(1<<40), false, mustMiss)
	}
}
