package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/bitslice"
	"repro/internal/ssd"
	"repro/internal/vclock"
)

// stagingOracle wraps one super table's filter bank. It forwards every
// call to the store's bank and keeps a shadow bank by the per-insert rule:
// a key is in the shadow's staging filter once the test has seen it in the
// buffer since the last rotation. The test looks at the buffer after every
// operation that can add to it and before every read of the staging filter
// (Rotate, QueryStaging). A key leaves the buffer only through a delete,
// which is an operation of its own, or through the reset that follows a
// rotation, so the shadow stages exactly the keys inserted into the buffer
// since the last rotation: the bits of an AddStaging per buffered insert.
// Deletes do not touch the shadow.
type stagingOracle struct {
	filterBank            // the store's bank
	shadow     filterBank // the per-insert rule
	st         *superTable
	t          *testing.T
	probes     []uint64 // key hashes whose answers are compared
	stale      bool     // the buffer may hold keys the shadow has not seen
	rotations  int
	stagedQs   int // QueryStaging answers compared
}

// see adds every buffered key to the shadow's staging filter.
func (o *stagingOracle) see() {
	o.st.buf.Iterate(func(kh, _ uint64) bool {
		o.shadow.AddStaging(kh)
		return true
	})
	o.stale = false
}

// AddStaging and AddStagingKeys reach the store's bank only.
func (o *stagingOracle) AddStaging(kh uint64)         { o.filterBank.AddStaging(kh) }
func (o *stagingOracle) AddStagingKeys(keys []uint64) { o.filterBank.AddStagingKeys(keys) }

func (o *stagingOracle) QueryStaging(kh uint64) bool {
	if o.stale {
		o.see()
	}
	got, want := o.filterBank.QueryStaging(kh), o.shadow.QueryStaging(kh)
	if got != want {
		o.t.Fatalf("table %d: QueryStaging(%#x) = %v, per-insert rule %v", o.st.idx, kh, got, want)
	}
	o.stagedQs++
	return got
}

func (o *stagingOracle) Rotate() {
	o.see()
	if real, ok := o.filterBank.(*bitslice.Bank); ok {
		if !reflect.DeepEqual(real, o.shadow) {
			o.t.Fatalf("table %d, rotation %d: bank differs from the per-insert rule", o.st.idx, o.rotations)
		}
	}
	for _, p := range o.probes {
		if got, want := o.filterBank.QueryStaging(p), o.shadow.QueryStaging(p); got != want {
			o.t.Fatalf("table %d, rotation %d: QueryStaging(%#x) = %v, per-insert rule %v",
				o.st.idx, o.rotations, p, got, want)
		}
	}
	o.filterBank.Rotate()
	o.shadow.Rotate()
	o.rotations++
	o.stale = true
}

// checkQueries compares the incarnation masks of the probe set.
func (o *stagingOracle) checkQueries(step int) {
	for _, p := range o.probes {
		if got, want := o.filterBank.Query(p), o.shadow.Query(p); got != want {
			o.t.Fatalf("step %d, table %d: Query(%#x) = %#x, per-insert rule %#x", step, o.st.idx, p, got, want)
		}
	}
}

// TestStagingMatchesPerInsertRule drives seeded random inserts (single and
// windowed), deletes (many of still-buffered keys) and lookup batches
// under every eviction policy, on the bit-sliced and the naive bank, and
// checks every super table's bank against the per-insert rule of
// stagingOracle: the whole bank at every rotation, QueryStaging at every
// rotation and every update-based scan, and Query masks over a probe set
// after every operation. The schedule is sized so that the ring wraps,
// LRU re-inserts and partial-discard cascades happen, and a run that does
// not exercise them fails. FIFO and UpdateBased run with a power-of-two
// filter size and LRU and PriorityBased with another, so that both probe
// reductions of AddStagingKeys are covered.
func TestStagingMatchesPerInsertRule(t *testing.T) {
	policies := []EvictionPolicy{FIFO, LRU, UpdateBased, PriorityBased}
	for pi, policy := range policies {
		for _, naive := range []bool{false, true} {
			name := policy.String() + "/bitslice"
			if naive {
				name = policy.String() + "/naive"
			}
			t.Run(name, func(t *testing.T) {
				runStagingOracle(t, policy, naive, 16+8*(pi%2), int64(70+2*pi))
			})
		}
	}
}

func runStagingOracle(t *testing.T, policy EvictionPolicy, naive bool, bitsPerEntry int, seed int64) {
	clock := vclock.New()
	cfg := Config{
		Device:             ssd.New(ssd.IntelX18M(), 1<<20, clock),
		Clock:              clock,
		PartitionBits:      2,
		BufferBytes:        8 << 10,
		NumIncarnations:    4,
		FilterBitsPerEntry: bitsPerEntry,
		Policy:             policy,
		DisableBitslice:    naive,
		Seed:               uint64(seed),
	}
	if policy == PriorityBased {
		cfg.Retain = func(_, v uint64) bool { return v%4 != 0 }
	}
	b := mustNew(t, cfg)
	rng := rand.New(rand.NewSource(seed))

	// Flash holds 4 tables × 4 incarnations × 256 entries; the universe
	// is larger, so incarnations are evicted, and a hot tenth of it takes
	// half the traffic, so keys are updated and found on flash. Under
	// UpdateBased the traffic is uniform instead: incarnations then stay
	// mostly live, and their retained entries overfill the fresh buffer
	// and cascade.
	universe := make([]uint64, 6000)
	for i := range universe {
		universe[i] = rng.Uint64()
	}
	hotShare := 2
	if policy == UpdateBased {
		hotShare = 0
	}
	pick := func() uint64 {
		if rng.Intn(4) < hotShare {
			return universe[rng.Intn(len(universe)/10)]
		}
		return universe[rng.Intn(len(universe))]
	}

	oracles := make([]*stagingOracle, len(b.parts))
	for i, st := range b.parts {
		m, h := cfg.FilterBits(), cfg.filterHashes()
		var shadow filterBank = bitslice.NewBank(m, cfg.NumIncarnations, h)
		if naive {
			shadow = newNaiveBank(m, cfg.NumIncarnations, h)
		}
		oracles[i] = &stagingOracle{filterBank: st.bank, shadow: shadow, st: st, t: t, stale: true}
		st.bank = oracles[i]
	}
	for _, key := range universe[:len(universe)/10] {
		st, kh := b.route(key)
		if o := oracles[st.idx]; len(o.probes) < 24 {
			o.probes = append(o.probes, kh)
		}
	}
	for _, o := range oracles {
		for range 8 {
			o.probes = append(o.probes, rng.Uint64())
		}
	}

	var recent [64]uint64 // the last keys inserted: deletes favour them
	nRecent, nextVal, bufferedDeletes := 0, uint64(1), 0
	touched := make([]bool, len(b.parts))
	const nOps = 3000
	for step := 0; step < nOps; step++ {
		clear(touched)
		switch r := rng.Intn(100); {
		case r < 55: // insert, one key or a window
			n := 1
			if rng.Intn(3) == 0 {
				n = 1 + rng.Intn(64)
			}
			keys, vals := make([]uint64, n), make([]uint64, n)
			for i := range keys {
				keys[i], vals[i] = pick(), nextVal
				nextVal++
				recent[nRecent%len(recent)] = keys[i]
				nRecent++
				st, _ := b.route(keys[i])
				touched[st.idx] = true
			}
			if err := b.InsertBatch(keys, vals); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		case r < 70: // delete, mostly of a recently inserted key
			key := pick()
			if nRecent > 0 && rng.Intn(3) != 0 {
				key = recent[rng.Intn(min(nRecent, len(recent)))]
			}
			if _, buffered := b.BufferedValue(key); buffered {
				// Probe the deleted key: its staging bits now come from
				// the delete alone.
				bufferedDeletes++
				st, kh := b.route(key)
				if o := oracles[st.idx]; len(o.probes) < 64 {
					o.probes = append(o.probes, kh)
				} else {
					o.probes[32+rng.Intn(32)] = kh
				}
			}
			if err := b.Delete(key); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		default: // lookup batch: LRU re-inserts found keys
			keys := make([]uint64, 1+rng.Intn(16))
			for i := range keys {
				keys[i] = pick()
				st, _ := b.route(keys[i])
				touched[st.idx] = true
			}
			if err := b.LookupBatch(keys, make([]LookupResult, len(keys))); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
		for i, o := range oracles {
			if touched[i] {
				o.see()
			}
			o.stale = true
			o.checkQueries(step)
		}
	}

	s := b.Stats()
	minRotations, stagedQs := nOps, 0
	for _, o := range oracles {
		minRotations = min(minRotations, o.rotations)
		stagedQs += o.stagedQs
	}
	summary := fmt.Sprintf("≥ %d rotations per table, %d buffered deletes, %d LRU re-inserts, %d cascades, %d scan QueryStaging checks",
		minRotations, bufferedDeletes, s.LRUReinserts, s.Cascades, stagedQs)
	t.Log(summary)
	if minRotations <= 2*cfg.NumIncarnations || bufferedDeletes == 0 ||
		policy == LRU && s.LRUReinserts == 0 ||
		(policy == UpdateBased || policy == PriorityBased) && s.Cascades == 0 ||
		policy == UpdateBased && stagedQs == 0 {
		t.Fatalf("schedule too weak: %s", summary)
	}
}
