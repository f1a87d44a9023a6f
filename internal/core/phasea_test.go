package core

import (
	"math/rand"
	"testing"
)

// Twin tests for the phase-A partitioner: a parallel-lane instance must be
// indistinguishable from a serial instance in everything but wall-clock
// time — per-key results, every core counter, and (transitively, through
// the shared clock-charge accounting) virtual time.

func TestLaneRangeCovers(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 127, 512, 4097} {
		for lanes := 1; lanes <= 8; lanes++ {
			next := 0
			for i := 0; i < lanes; i++ {
				lo, hi := laneRange(n, lanes, i)
				if lo != next {
					t.Fatalf("n=%d lanes=%d lane %d starts at %d, want %d", n, lanes, i, lo, next)
				}
				if hi < lo || hi > n {
					t.Fatalf("n=%d lanes=%d lane %d has bad range [%d,%d)", n, lanes, i, lo, hi)
				}
				next = hi
			}
			if next != n {
				t.Fatalf("n=%d lanes=%d covers only %d keys", n, lanes, next)
			}
		}
	}
}

func TestGoRunnerRunsEveryLane(t *testing.T) {
	for lanes := 1; lanes <= 6; lanes++ {
		hit := make([]int32, lanes)
		GoRunner(lanes, func(i int) { hit[i]++ })
		for i, h := range hit {
			if h != 1 {
				t.Fatalf("lanes=%d: lane %d ran %d times", lanes, i, h)
			}
		}
	}
}

// loadedPair builds two byte-identical instances from the same seeded
// insert stream (each on its own device and clock).
func loadedPair(t *testing.T, n int) (serial, par *BufferHash) {
	t.Helper()
	build := func() *BufferHash {
		cfg, _ := testConfig(t)
		b := mustNew(t, cfg)
		rng := rand.New(rand.NewSource(71))
		for i := 0; i < n; i++ {
			if err := b.Insert(rng.Uint64(), uint64(i)); err != nil {
				t.Fatal(err)
			}
		}
		b.ResetStats()
		return b
	}
	return build(), build()
}

func TestParallelLookupBatchMatchesSerial(t *testing.T) {
	serial, par := loadedPair(t, 30000)
	par.SetParallel(4, GoRunner)

	// Probe stream: present keys, absent keys, and heavy duplication (the
	// hot keys of a skewed batch), so lanes recompute keys the serial memo
	// would have replayed.
	rng := rand.New(rand.NewSource(71))
	present := make([]uint64, 30000)
	for i := range present {
		present[i] = rng.Uint64()
	}
	prng := rand.New(rand.NewSource(99))
	hot := present[:16]
	keys := make([]uint64, 8192)
	for i := range keys {
		switch prng.Intn(4) {
		case 0:
			keys[i] = hot[prng.Intn(len(hot))] // duplicates across lanes
		case 1:
			keys[i] = prng.Uint64() // almost surely absent
		default:
			keys[i] = present[prng.Intn(len(present))]
		}
	}

	results := make([]LookupResult, len(keys))
	if err := par.LookupBatch(keys, results); err != nil {
		t.Fatal(err)
	}
	hits := 0
	for i, k := range keys {
		want, err := serial.Lookup(k)
		if err != nil {
			t.Fatal(err)
		}
		if results[i] != want {
			t.Fatalf("key %d (%#x): parallel %+v, serial %+v", i, k, results[i], want)
		}
		if want.Found {
			hits++
		}
	}
	if hits == 0 {
		t.Fatal("degenerate probe stream: no hits")
	}
	if ss, ps := serial.Stats(), par.Stats(); ss != ps {
		t.Fatalf("core counters diverge:\nserial   %+v\nparallel %+v", ss, ps)
	}
}

func TestParallelInsertBatchMatchesSerial(t *testing.T) {
	cfgS, _ := testConfig(t)
	cfgP, _ := testConfig(t)
	serial := mustNew(t, cfgS)
	par := mustNew(t, cfgP)
	par.SetParallel(4, GoRunner)

	// Enough inserts to wrap the incarnation ring (evictions), with
	// duplicate-heavy windows exercising the last-write-wins memo under
	// precomputed routes.
	rng := rand.New(rand.NewSource(401))
	universe := make([]uint64, 30000)
	for i := range universe {
		universe[i] = rng.Uint64()
	}
	const window = 1500
	keys := make([]uint64, window)
	vals := make([]uint64, window)
	seq := uint64(0)
	for round := 0; round < 80; round++ {
		for i := range keys {
			keys[i] = universe[rng.Intn(len(universe))]
			seq++
			vals[i] = seq
		}
		for i := range keys {
			if err := serial.Insert(keys[i], vals[i]); err != nil {
				t.Fatal(err)
			}
		}
		if err := par.InsertBatch(keys, vals); err != nil {
			t.Fatal(err)
		}
		// Interleave batched deletes through the same parallel route path.
		if round%5 == 4 {
			del := keys[:97]
			for _, k := range del {
				if err := serial.Delete(k); err != nil {
					t.Fatal(err)
				}
			}
			if err := par.DeleteBatch(del); err != nil {
				t.Fatal(err)
			}
		}
	}
	ss, ps := serial.Stats(), par.Stats()
	if ss != ps {
		t.Fatalf("core counters diverge:\nserial   %+v\nparallel %+v", ss, ps)
	}
	if ss.Evictions == 0 || ss.Flushes == 0 {
		t.Fatalf("degenerate stream (flushes=%d evictions=%d); retune the test", ss.Flushes, ss.Evictions)
	}
	// Post-state equivalence: every universe key answers identically.
	for _, k := range universe {
		sres, err := serial.Lookup(k)
		if err != nil {
			t.Fatal(err)
		}
		pres, err := par.Lookup(k)
		if err != nil {
			t.Fatal(err)
		}
		if sres != pres {
			t.Fatalf("post-state lookup(%#x): serial %+v, parallel %+v", k, sres, pres)
		}
	}
}

// TestParallelWidthsKeepClockAndStats pins the lane-local CPU debt: lookup
// and insert batches whose duplicates straddle lanes must leave the virtual
// clock, every counter and every result exactly where the serial phase A
// leaves them, after every batch and at every width.
func TestParallelWidthsKeepClockAndStats(t *testing.T) {
	type run struct {
		b     *BufferHash
		width int
	}
	var runs []run
	for _, width := range []int{1, 2, 4} {
		cfg, _ := testConfig(t)
		b := mustNew(t, cfg)
		b.SetParallel(width, GoRunner)
		runs = append(runs, run{b, width})
	}

	rng := rand.New(rand.NewSource(8080))
	universe := make([]uint64, 100000) // thrice the flash capacity: evictions
	for i := range universe {
		universe[i] = rng.Uint64()
	}
	hot := universe[:8] // drawn all over each batch: duplicates in every lane
	draw := func() uint64 {
		switch rng.Intn(5) {
		case 0:
			return hot[rng.Intn(len(hot))]
		case 1:
			return rng.Uint64() // almost surely never written
		default:
			return universe[rng.Intn(len(universe))]
		}
	}

	const batch = 1024
	keys := make([]uint64, batch)
	vals := make([]uint64, batch)
	results := make([][]LookupResult, len(runs))
	for i := range results {
		results[i] = make([]LookupResult, batch)
	}
	lookups := 0
	for round := 0; round < 150; round++ {
		lookup := round%3 == 2
		for i := range keys {
			keys[i] = draw()
			vals[i] = uint64(round*batch + i)
		}
		for ri, r := range runs {
			var err error
			switch {
			case lookup:
				err = r.b.LookupBatch(keys, results[ri])
			case round%10 == 9:
				err = r.b.DeleteBatch(keys[:batch/8])
			default:
				err = r.b.InsertBatch(keys, vals)
			}
			if err != nil {
				t.Fatalf("width %d round %d: %v", r.width, round, err)
			}
		}
		if lookup {
			lookups++
		}
		want, wantStats := runs[0].b.cfg.Clock.Now(), runs[0].b.Stats()
		for ri, r := range runs[1:] {
			if got := r.b.cfg.Clock.Now(); got != want {
				t.Fatalf("round %d: width %d clock %v, serial %v", round, r.width, got, want)
			}
			if got := r.b.Stats(); got != wantStats {
				t.Fatalf("round %d: width %d counters diverge:\nserial   %+v\nparallel %+v", round, r.width, wantStats, got)
			}
			if lookup {
				for i := range keys {
					if results[ri+1][i] != results[0][i] {
						t.Fatalf("round %d key %d: width %d %+v, serial %+v", round, i, r.width, results[ri+1][i], results[0][i])
					}
				}
			}
		}
	}
	st := runs[0].b.Stats()
	if st.Evictions == 0 || st.FlashProbes == 0 || st.Hits == 0 || lookups == 0 {
		t.Fatalf("degenerate stream (evictions=%d probes=%d hits=%d); retune the test", st.Evictions, st.FlashProbes, st.Hits)
	}
}
