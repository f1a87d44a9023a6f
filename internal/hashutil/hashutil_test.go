package hashutil

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMix64Avalanche(t *testing.T) {
	// Flipping one input bit should flip roughly half the output bits.
	const trials = 256
	var totalFlips, totalBits int
	for i := uint64(0); i < trials; i++ {
		x := Mix64(i * 0x9e3779b97f4a7c15)
		for b := uint(0); b < 64; b++ {
			y := x ^ (1 << b)
			diff := Mix64(x) ^ Mix64(y)
			totalFlips += popcount(diff)
			totalBits += 64
		}
	}
	ratio := float64(totalFlips) / float64(totalBits)
	if math.Abs(ratio-0.5) > 0.02 {
		t.Fatalf("avalanche ratio = %.4f, want ~0.5", ratio)
	}
}

func popcount(x uint64) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}

func TestMix64Injective(t *testing.T) {
	// Mix64 is a bijection; sample-check for collisions.
	seen := make(map[uint64]uint64)
	for i := uint64(0); i < 100000; i++ {
		h := Mix64(i)
		if prev, ok := seen[h]; ok {
			t.Fatalf("collision: Mix64(%d) == Mix64(%d)", i, prev)
		}
		seen[h] = i
	}
}

func TestHash64SeedIndependence(t *testing.T) {
	// Two seeds should agree on ~0 of many keys.
	same := 0
	for i := uint64(0); i < 10000; i++ {
		if Hash64Seed(i, 1) == Hash64Seed(i, 2) {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("seeds 1 and 2 collided on %d/10000 keys", same)
	}
}

func TestHashBytesMatchesLength(t *testing.T) {
	a := HashBytes([]byte("hello"), 0)
	b := HashBytes([]byte("hello!"), 0)
	if a == b {
		t.Fatal("different inputs hashed equal")
	}
	if HashBytes([]byte("hello"), 0) != a {
		t.Fatal("HashBytes not deterministic")
	}
	if HashBytes([]byte("hello"), 1) == a {
		t.Fatal("seed has no effect")
	}
	if HashBytes(nil, 7) != HashBytes([]byte{}, 7) {
		t.Fatal("nil and empty slice hash differently")
	}
}

func TestDoubleHashInRange(t *testing.T) {
	f := func(h uint64, n8 uint8, m64 uint16) bool {
		n := int(n8%16) + 1
		m := uint64(m64%1000) + 1
		out := DoubleHash(h, n, m, nil)
		if len(out) != n {
			return false
		}
		for _, v := range out {
			if v >= m {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDoubleHashAppends(t *testing.T) {
	scratch := make([]uint64, 0, 8)
	a := DoubleHash(42, 3, 100, scratch)
	b := DoubleHash(42, 3, 100, scratch)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("DoubleHash not deterministic with reused scratch")
		}
	}
}

func TestDoubleHashCoverage(t *testing.T) {
	// With an odd stride and power-of-two m, the probes must be distinct
	// until they wrap.
	m := uint64(1 << 10)
	out := DoubleHash(12345, 8, m, nil)
	seen := map[uint64]bool{}
	for _, v := range out {
		if seen[v] {
			t.Fatalf("duplicate probe %d in %v", v, out)
		}
		seen[v] = true
	}
}

func TestSplitJoinRoundTrip(t *testing.T) {
	f := func(key uint64, bits8 uint8) bool {
		bits := uint(bits8 % 20)
		p, r := Split(key, bits)
		if bits > 0 && p >= 1<<bits {
			return false
		}
		return Join(p, r, bits) == key
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestSplitZeroBits(t *testing.T) {
	p, r := Split(0xdeadbeef, 0)
	if p != 0 || r != 0xdeadbeef {
		t.Fatalf("Split(x, 0) = (%d, %#x), want (0, 0xdeadbeef)", p, r)
	}
}

func TestSplitPartitionRange(t *testing.T) {
	// All partitions reachable with 4 bits.
	seen := make(map[uint64]bool)
	for i := 0; i < 1<<16; i++ {
		p, _ := Split(Mix64(uint64(i)), 4)
		seen[p] = true
	}
	if len(seen) != 16 {
		t.Fatalf("4-bit split reached %d partitions, want 16", len(seen))
	}
}

func TestEntryRoundTrip(t *testing.T) {
	f := func(key, value uint64) bool {
		var buf [EntrySize]byte
		PutEntry(buf[:], key, value)
		k, v := GetEntry(buf[:])
		return k == key && v == value
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestReduceInRange(t *testing.T) {
	f := func(x uint64, m64 uint32) bool {
		m := uint64(m64) + 1
		return Reduce(x, m) < m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestReduceMatchesMaskForPow2(t *testing.T) {
	for shift := uint(0); shift < 40; shift += 7 {
		m := uint64(1) << shift
		for i := uint64(0); i < 1000; i++ {
			x := Mix64(i)
			if Reduce(x, m) != x&(m-1) {
				t.Fatalf("Reduce(%#x, %d) != mask", x, m)
			}
		}
	}
}

func TestFastRange64Uniformity(t *testing.T) {
	// Bucket 1e5 mixed values into 97 buckets (non-power-of-two); every
	// bucket should receive close to its fair share.
	const m, n = 97, 100000
	var counts [m]int
	for i := uint64(0); i < n; i++ {
		counts[FastRange64(Mix64(i), m)]++
	}
	want := float64(n) / m
	for b, c := range counts {
		if math.Abs(float64(c)-want) > want*0.15 {
			t.Fatalf("bucket %d has %d values, want ~%.0f", b, c, want)
		}
	}
}

// doubleHashMod is the pre-fastrange reduction, kept in the tests as the
// baseline for the reduction benchmarks and as a distribution cross-check.
func doubleHashMod(h uint64, n int, m uint64, dst []uint64) []uint64 {
	h1 := h
	h2 := Mix64(h) | 1
	for i := 0; i < n; i++ {
		dst = append(dst, h1%m)
		h1 += h2
	}
	return dst
}

func benchDoubleHash(b *testing.B, m uint64, fn func(h uint64, n int, m uint64, dst []uint64) []uint64) {
	var scratch [8]uint64
	var sink uint64
	for i := 0; i < b.N; i++ {
		out := fn(Mix64(uint64(i)), 8, m, scratch[:0])
		sink += out[0]
	}
	_ = sink
}

func BenchmarkDoubleHashFastrange(b *testing.B) { benchDoubleHash(b, 65521, DoubleHash) }
func BenchmarkDoubleHashMod(b *testing.B)       { benchDoubleHash(b, 65521, doubleHashMod) }
func BenchmarkDoubleHashPow2Mask(b *testing.B)  { benchDoubleHash(b, 1<<16, DoubleHash) }
func BenchmarkDoubleHashPow2Mod(b *testing.B)   { benchDoubleHash(b, 1<<16, doubleHashMod) }

func TestSeedMixSplitsHash64Seed(t *testing.T) {
	// Golden values: the cuckoo page and bucket choices, and so every
	// flash image byte, hang on this family staying fixed.
	for _, c := range [][3]uint64{
		{0x0, 0, 0x48218226ff3cd4bf},
		{0x1, 2, 0xf2826f98653e9e57},
		{0x123456789abcdef0, 42, 0x55c388f1e0dfbc36},
	} {
		if got := Hash64Seed(c[0], c[1]); got != c[2] {
			t.Fatalf("Hash64Seed(%#x, %d) = %#x, want %#x", c[0], c[1], got, c[2])
		}
	}
	f := func(x, seed uint64) bool {
		return Hash64Seed(x, seed) == Mix64(x^SeedMix(seed))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
