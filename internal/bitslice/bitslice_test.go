package bitslice

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/hashutil"
)

// plainFilter is a Bloom filter bitset probed at positions hashed over
// exactly m bits, as the bank hashes them (bloom.Filter rounds m up to
// whole words, so it would probe other positions whenever m is not a
// multiple of 64).
type plainFilter []uint64

func newPlain(m uint64) plainFilter { return make(plainFilter, (m+63)/64) }

// holds reports whether every probe position ps is set.
func (f plainFilter) holds(ps []uint64) bool {
	for _, p := range ps {
		if f[p>>6]&(1<<(p&63)) == 0 {
			return false
		}
	}
	return true
}

// naiveBank is the straightforward implementation the bit-sliced bank must
// be equivalent to: k+1 separate Bloom filters rotated on eviction.
type naiveBank struct {
	k       int
	filters []plainFilter // len k, oldest first; nil = empty column
	staging plainFilter
	m       uint64
	h       int
	ps      []uint64 // probe positions of the last key hashed
}

func newNaive(m uint64, k, h int) *naiveBank {
	return &naiveBank{k: k, filters: make([]plainFilter, k), staging: newPlain(m), m: m, h: h}
}

func (n *naiveBank) probes(kh uint64) []uint64 {
	n.ps = hashutil.DoubleHash(kh, n.h, n.m, n.ps[:0])
	return n.ps
}

func (n *naiveBank) AddStaging(kh uint64) {
	for _, p := range n.probes(kh) {
		n.staging[p>>6] |= 1 << (p & 63)
	}
}

func (n *naiveBank) QueryStaging(kh uint64) bool { return n.staging.holds(n.probes(kh)) }

func (n *naiveBank) Rotate() {
	copy(n.filters, n.filters[1:])
	n.filters[n.k-1] = n.staging
	n.staging = newPlain(n.m)
}

func (n *naiveBank) Query(kh uint64) uint64 {
	ps := n.probes(kh)
	var mask uint64
	for j, f := range n.filters {
		if f != nil && f.holds(ps) {
			mask |= 1 << j
		}
	}
	return mask
}

func TestEquivalenceWithNaiveBank(t *testing.T) {
	// Property: under an arbitrary interleaving of inserts and rotations,
	// the bit-sliced bank answers every query identically to k+1 plain
	// Bloom filters. The k values straddle every lane width (8/16/32/64);
	// the m values cover a power of two, non-powers of two (the fastrange
	// reduction) and sizes that leave a partial staging and row word.
	// Each run rotates more than 3k times, so the ring wraps repeatedly.
	ks := []int{1, 2, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64}
	ms := []uint64{1 << 10, 1000, 65521, 196608}
	const h = 4
	for _, m := range ms {
		for _, k := range ks {
			bank := NewBank(m, k, h)
			ref := newNaive(m, k, h)
			rng := rand.New(rand.NewSource(int64(m)*131 + int64(k)))
			var keys []uint64
			check := func(step int) {
				probes := []uint64{rng.Uint64()}
				if len(keys) > 0 {
					probes = append(probes, keys[len(keys)-1], keys[rng.Intn(len(keys))])
				}
				for _, p := range probes {
					want := ref.Query(p)
					if got := bank.Query(p); got != want {
						t.Fatalf("m=%d k=%d step %d: Query(%#x) = %#x, want %#x", m, k, step, p, got, want)
					}
					if got, want := bank.QueryStaging(p), ref.QueryStaging(p); got != want {
						t.Fatalf("m=%d k=%d step %d: QueryStaging(%#x) = %v, want %v", m, k, step, p, got, want)
					}
				}
			}
			for step, rotations := 0, 0; rotations <= 3*k+2; step++ {
				if rng.Intn(8) == 0 { // rotate (evict oldest, flush staging)
					bank.Rotate()
					ref.Rotate()
					rotations++
				} else {
					kh := rng.Uint64()
					keys = append(keys, kh)
					bank.AddStaging(kh)
					ref.AddStaging(kh)
				}
				check(step)
			}
		}
	}
}

func TestAddStagingKeysMatchesPlainFilter(t *testing.T) {
	// Property: AddStagingKeys over a slot array with zero holes, and
	// AddStaging per key, set exactly the bits of a plain m-bit filter
	// probed at hashutil.DoubleHash's positions for the non-zero keys.
	// Each round stages a fresh slot array (the empty and all-zero arrays
	// included), alternating the two calls, and rotates, so the bitmap is
	// cleared between rounds. The m values cover both reductions: the
	// mask at a power of two (one below a word) and fastrange otherwise;
	// the h values leave every remainder of fastrange's four-probe passes.
	for _, m := range []uint64{32, 1 << 12, 1000, 65521} {
		for _, g := range [][2]int{{1, 1}, {8, 6}, {9, 7}, {16, 33}, {33, 4}} {
			k, h := g[0], g[1]
			bank, ref := NewBank(m, k, h), newNaive(m, k, h)
			rng := rand.New(rand.NewSource(int64(m)*31 + int64(k)))
			for round := 0; round < 2*k+3; round++ {
				var slots []uint64
				switch round {
				case 0:
				case 1:
					slots = make([]uint64, 64)
				default: // about half the slots hold a key, as in a cuckoo buffer
					slots = make([]uint64, 1+rng.Intn(512))
					for i := range slots {
						if rng.Intn(2) == 0 {
							slots[i] = rng.Uint64() | 1
						}
					}
				}
				if round%2 == 0 {
					bank.AddStagingKeys(slots)
				} else {
					for _, kh := range slots {
						bank.AddStaging(kh)
					}
				}
				for _, kh := range slots {
					if kh != 0 {
						ref.AddStaging(kh)
					}
				}
				for i, w := range ref.staging {
					if bank.staging[i] != w {
						t.Fatalf("m=%d k=%d h=%d round %d: staging word %d = %#x, want %#x",
							m, k, h, round, i, bank.staging[i], w)
					}
				}
				bank.Rotate()
				ref.Rotate()
			}
		}
	}
}

// refRotate is Rotate written bit by bit: staging bit p goes to lane bit
// start of row p, whose lane is p mod (64/lane) of row word p/(64/lane).
func refRotate(b *Bank, rows []uint64) {
	m, staging := b.m, b.staging
	per, lane, start := uint64(1)<<b.perLog, uint64(1)<<b.laneLog, uint64(b.start)
	for w := range rows {
		row := rows[w]
		for i := uint64(0); i < per; i++ {
			p := uint64(w)*per + i
			if p == m {
				break
			}
			bit := staging[p/64] >> (p % 64) & 1
			pos := i*lane + start
			row = row&^(1<<pos) | bit<<pos
		}
		rows[w] = row
	}
}

func TestRotateMatchesBitwiseTranspose(t *testing.T) {
	// Rotate's table-driven pass must write the rows a bit-by-bit
	// transpose writes, word for word, at every lane width and ring
	// position. The m values leave a partial row word and a partial
	// staging word; the staging bits are random words of varying density.
	for _, m := range []uint64{1000, 65521, 196608} {
		for _, k := range []int{1, 8, 9, 16, 17, 32, 33, 64} {
			bank := NewBank(m, k, 4)
			want := make([]uint64, len(bank.rows))
			rng := rand.New(rand.NewSource(int64(m)*17 + int64(k)))
			for rot := 0; rot <= 2*k; rot++ {
				// Each word ANDs 1 to 4 hashes: about 1/2 to 1/16 of its
				// bits set.
				x, density := rng.Uint64(), 1+rng.Intn(4)
				for i := range bank.staging {
					w := ^uint64(0)
					for range density {
						x = hashutil.Mix64(x + 1)
						w &= x
					}
					bank.staging[i] = w
				}
				if tail := m % 64; tail != 0 {
					bank.staging[len(bank.staging)-1] &= 1<<tail - 1
				}
				refRotate(bank, want)
				bank.Rotate()
				for i, w := range want {
					if bank.rows[i] != w {
						t.Fatalf("m=%d k=%d rotation %d: row word %d = %#x, want %#x",
							m, k, rot, i, bank.rows[i], w)
					}
				}
				for i, w := range bank.staging {
					if w != 0 {
						t.Fatalf("m=%d k=%d rotation %d: staging word %d = %#x after Rotate", m, k, rot, i, w)
					}
				}
			}
		}
	}
}

func TestBankKernelAllocs(t *testing.T) {
	// The flush and query kernels allocate nothing at any lane width:
	// Rotate's table lives on its stack, and AddStaging's one-key array
	// does not escape.
	for _, k := range []int{8, 16, 32, 64} {
		bank := NewBank(shippedM, k, shippedH)
		slots := make([]uint64, 64)
		for i := range slots {
			slots[i] = uint64(i+1) * 0x9e3779b97f4a7c15
		}
		for name, fn := range map[string]func(){
			"Rotate":         bank.Rotate,
			"AddStagingKeys": func() { bank.AddStagingKeys(slots) },
			"AddStaging":     func() { bank.AddStaging(slots[3]) },
			"Query":          func() { sinkMask |= bank.Query(slots[5]) },
		} {
			if n := testing.AllocsPerRun(20, fn); n != 0 {
				t.Errorf("k=%d: %s allocates %v times per call, want 0", k, name, n)
			}
		}
	}
}

func TestConcurrentQueryWithMatchesSerial(t *testing.T) {
	// Concurrent readers on a frozen bank must see exactly the serial
	// answers: Query writes nothing the bank owns.
	const (
		m       = 196608
		k       = 16
		h       = 33
		readers = 4
	)
	bank := NewBank(m, k, h)
	rng := rand.New(rand.NewSource(3))
	var probes []uint64
	for r := 0; r < k+3; r++ {
		for i := 0; i < 2048; i++ {
			kh := rng.Uint64()
			bank.AddStaging(kh)
			if i%4 == 0 {
				probes = append(probes, kh)
			}
		}
		bank.Rotate()
	}
	for i := 0; i < 1024; i++ {
		probes = append(probes, rng.Uint64())
	}
	want := make([]uint64, len(probes))
	for i, p := range probes {
		want[i] = bank.Query(p)
	}
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range probes {
				j := (i + g*len(probes)/readers) % len(probes)
				if got := bank.Query(probes[j]); got != want[j] {
					t.Errorf("reader %d: Query(%#x) = %#x, want %#x", g, probes[j], got, want[j])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestMemoryBitsIsLanesPlusStaging(t *testing.T) {
	// Rows take the narrowest 8/16/32/64-bit lane that fits k; the staging
	// bitmap takes m bits, both rounded up to whole words.
	for _, tc := range []struct {
		m    uint64
		k    int
		want uint64
	}{
		{196608, 16, 196608*16 + 196608},
		{1 << 10, 1, 1024*8 + 1024},
		{1 << 10, 8, 1024*8 + 1024},
		{1 << 10, 9, 1024*16 + 1024},
		{1 << 10, 17, 1024*32 + 1024},
		{1 << 10, 33, 1024*64 + 1024},
		{1000, 16, 1000*16 + 1024},
		{1001, 16, 1004*16 + 1024},
		{65521, 64, 65521*64 + 65536},
	} {
		if got := NewBank(tc.m, tc.k, 4).MemoryBits(); got != tc.want {
			t.Errorf("MemoryBits(m=%d, k=%d) = %d, want %d", tc.m, tc.k, got, tc.want)
		}
	}
}

func TestLongRotationWrapsWindow(t *testing.T) {
	// Rotate far more times than the ring length to exercise wrap-around
	// of the oldest-column start, verifying equivalence throughout.
	const (
		m = 256
		k = 16
		h = 3
	)
	bank := NewBank(m, k, h)
	ref := newNaive(m, k, h)
	rng := rand.New(rand.NewSource(42))
	for rot := 0; rot < 1000; rot++ {
		for i := 0; i < 8; i++ {
			kh := rng.Uint64()
			bank.AddStaging(kh)
			ref.AddStaging(kh)
		}
		bank.Rotate()
		ref.Rotate()
		for i := 0; i < 4; i++ {
			p := rng.Uint64()
			if got, want := bank.Query(p), ref.Query(p); got != want {
				t.Fatalf("rotation %d: Query(%#x) = %#x, want %#x", rot, p, got, want)
			}
		}
	}
}

func TestFreshKeyFoundInNewestColumn(t *testing.T) {
	bank := NewBank(1<<12, 16, 4)
	bank.AddStaging(0xABCD)
	if !bank.QueryStaging(0xABCD) {
		t.Fatal("staging lost the key")
	}
	if bank.Query(0xABCD) != 0 {
		// Might be a false positive, but with an empty bank all columns
		// are zero, so this must be exact.
		t.Fatal("key visible in incarnations before rotation")
	}
	bank.Rotate()
	mask := bank.Query(0xABCD)
	if mask&(1<<15) == 0 {
		t.Fatalf("key not in newest column after rotation: mask %#x", mask)
	}
	if bank.QueryStaging(0xABCD) {
		t.Fatal("fresh staging column not empty (false positive impossible on empty filter)")
	}
}

func TestKeyAgesOutAfterKRotations(t *testing.T) {
	const k = 8
	bank := NewBank(1<<12, k, 4)
	bank.AddStaging(0x1234)
	bank.Rotate()
	for i := 0; i < k-1; i++ {
		if bank.Query(0x1234) == 0 {
			t.Fatalf("key lost after only %d of %d rotations", i+1, k)
		}
		bank.Rotate()
	}
	// One more rotation evicts it.
	bank.Rotate()
	if bank.Query(0x1234) != 0 {
		t.Fatal("key still visible after k+1 rotations (stale bits not retired)")
	}
}

func TestMaskOffsetsShiftWithRotation(t *testing.T) {
	const k = 16
	bank := NewBank(1<<12, k, 4)
	bank.AddStaging(7)
	bank.Rotate() // key now at offset k-1 (newest)
	for age := 1; age < k; age++ {
		bank.Rotate()
		mask := bank.Query(7)
		want := uint64(1) << (k - 1 - age)
		if mask&want == 0 {
			t.Fatalf("after %d rotations mask = %#x, want bit %d", age+1, mask, k-1-age)
		}
	}
}

func TestK64Boundary(t *testing.T) {
	bank := NewBank(512, 64, 3)
	bank.AddStaging(99)
	bank.Rotate()
	if mask := bank.Query(99); mask&(1<<63) == 0 {
		t.Fatalf("k=64: mask = %#x, want bit 63", mask)
	}
	for i := 0; i < 64; i++ {
		bank.Rotate()
	}
	if mask := bank.Query(99); mask != 0 {
		t.Fatalf("k=64: key survived 65 rotations: %#x", mask)
	}
}

func TestK1Boundary(t *testing.T) {
	bank := NewBank(128, 1, 2)
	bank.AddStaging(5)
	bank.Rotate()
	if bank.Query(5)&1 == 0 {
		t.Fatal("k=1: key not found")
	}
	bank.Rotate()
	if bank.Query(5) != 0 {
		t.Fatal("k=1: key survived eviction")
	}
}

func TestMatchOffsets(t *testing.T) {
	got := MatchOffsets(0b1010010, nil)
	want := []int{1, 4, 6}
	if len(got) != len(want) {
		t.Fatalf("MatchOffsets = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("MatchOffsets = %v, want %v", got, want)
		}
	}
	if out := MatchOffsets(0, nil); len(out) != 0 {
		t.Fatal("MatchOffsets(0) should be empty")
	}
}

func TestAccessors(t *testing.T) {
	bank := NewBank(1000, 16, 5)
	if bank.K() != 16 || bank.Hashes() != 5 || bank.FilterBits() != 1000 {
		t.Fatal("accessors wrong")
	}
	if bank.MemoryBits() == 0 {
		t.Fatal("memory accounting missing")
	}
}

func TestPanicsOnBadParams(t *testing.T) {
	for _, fn := range []func(){
		func() { NewBank(0, 16, 4) },
		func() { NewBank(100, 0, 4) },
		func() { NewBank(100, 65, 4) },
		func() { NewBank(100, 16, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func BenchmarkBitslicedQuery(b *testing.B) {
	bank := NewBank(1<<16, 16, 8)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 16; i++ {
		for j := 0; j < 4096; j++ {
			bank.AddStaging(rng.Uint64())
		}
		bank.Rotate()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bank.Query(uint64(i) * 0x9e3779b97f4a7c15)
	}
}

func BenchmarkNaiveQuery(b *testing.B) {
	ref := newNaive(1<<16, 16, 8)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 16; i++ {
		for j := 0; j < 4096; j++ {
			ref.AddStaging(rng.Uint64())
		}
		ref.Rotate()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ref.Query(uint64(i) * 0x9e3779b97f4a7c15)
	}
}

// BenchmarkBankQueryFastrange exercises the non-power-of-two filter size,
// where DoubleHash reduces probes with Lemire fastrange instead of %; the
// power-of-two BenchmarkBitslicedQuery above takes the mask path.
func BenchmarkBankQueryFastrange(b *testing.B) {
	bank := NewBank(65521, 16, 8)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 16; i++ {
		for j := 0; j < 4096; j++ {
			bank.AddStaging(rng.Uint64())
		}
		bank.Rotate()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bank.Query(uint64(i) * 0x9e3779b97f4a7c15)
	}
}

// The benchmarks below use the geometry every perfbench workload ships
// with: k = 16 incarnations, 48 filter bits per entry over a 4096-entry
// buffer (m = 196608) and h = 33 hash functions.
const (
	shippedM      = 196608
	shippedK      = 16
	shippedH      = 33
	shippedPerBuf = 4096
)

// shippedSlots returns one slot array per incarnation, each a cuckoo
// buffer's worth: 2·shippedPerBuf slots, half of them holding a key.
func shippedSlots() [][]uint64 {
	rng := rand.New(rand.NewSource(1))
	slots := make([][]uint64, shippedK)
	for r := range slots {
		slots[r] = make([]uint64, 2*shippedPerBuf)
		for _, i := range rng.Perm(2 * shippedPerBuf)[:shippedPerBuf] {
			slots[r][i] = rng.Uint64() | 1
		}
	}
	return slots
}

// BenchmarkBankAddRotate is the write side of a flush, as the store runs
// it: one AddStagingKeys pass over the buffer's slot array, then the
// rotation. ns/key is per buffered key.
func BenchmarkBankAddRotate(b *testing.B) {
	bank := NewBank(shippedM, shippedK, shippedH)
	slots := shippedSlots()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bank.AddStagingKeys(slots[i%shippedK])
		bank.Rotate()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*shippedPerBuf), "ns/key")
}

// BenchmarkRotate times the rotation alone (the transpose pass), over a
// staging filter filled with one buffer's keys before each call. ns/key
// is per buffered key.
func BenchmarkRotate(b *testing.B) {
	bank := NewBank(shippedM, shippedK, shippedH)
	staged := make([][]uint64, shippedK)
	for r, s := range shippedSlots() {
		bank.AddStagingKeys(s)
		staged[r] = append([]uint64(nil), bank.staging...)
		bank.Rotate()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		copy(bank.staging, staged[i%shippedK])
		b.StartTimer()
		bank.Rotate()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*shippedPerBuf), "ns/key")
}

// BenchmarkBankQueryShipped queries a full bank at the shipped geometry;
// two in five probes are keys the bank holds, the rest never added.
func BenchmarkBankQueryShipped(b *testing.B) {
	bank := NewBank(shippedM, shippedK, shippedH)
	rng := rand.New(rand.NewSource(1))
	held := make([]uint64, 0, shippedK*shippedPerBuf)
	for r := 0; r < shippedK; r++ {
		for i := 0; i < shippedPerBuf; i++ {
			kh := rng.Uint64()
			held = append(held, kh)
			bank.AddStaging(kh)
		}
		bank.Rotate()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kh := uint64(i) * 0x9e3779b97f4a7c15
		if i%5 < 2 {
			kh = held[(i*7919)%len(held)]
		}
		sinkMask |= bank.Query(kh)
	}
}

var sinkMask uint64

// BenchmarkStaging times filling the staging filters of one shard's super
// tables at the shipped geometry (4 tables per shard, each with a
// 4096-entry buffer): PerInsert adds each key as it arrives, to a table
// chosen at random; AtFlush adds each table's buffered keys in one
// AddStagingKeys pass over its slot array, half of whose slots are empty.
// ns/key is the cost per staged key.
func BenchmarkStaging(b *testing.B) {
	const tables = 4
	rng := rand.New(rand.NewSource(1))
	banks := make([]*Bank, tables)
	slots := make([][]uint64, tables)
	type arrival struct {
		table int
		kh    uint64
	}
	var arrivals []arrival
	for t := range banks {
		banks[t] = NewBank(shippedM, shippedK, shippedH)
		slots[t] = make([]uint64, 2*shippedPerBuf)
		for _, i := range rng.Perm(2 * shippedPerBuf)[:shippedPerBuf] {
			slots[t][i] = rng.Uint64() | 1
			arrivals = append(arrivals, arrival{t, slots[t][i]})
		}
	}
	rng.Shuffle(len(arrivals), func(i, j int) { arrivals[i], arrivals[j] = arrivals[j], arrivals[i] })
	perKey := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(arrivals)), "ns/key")
	}
	b.Run("PerInsert", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, a := range arrivals {
				banks[a.table].AddStaging(a.kh)
			}
		}
		perKey(b)
	})
	b.Run("AtFlush", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for t, bank := range banks {
				bank.AddStagingKeys(slots[t])
			}
		}
		perKey(b)
	})
}
