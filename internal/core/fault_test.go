package core

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"testing"
	"time"

	"repro/internal/disk"
	"repro/internal/flashchip"
	"repro/internal/ssd"
	"repro/internal/storage"
	"repro/internal/vclock"
)

// faultyDevice is a device model with a fault-injection hook.
type faultyDevice interface {
	storage.Device
	SetFault(storage.FaultFunc)
}

// TestWriteFaultKeepsLastValues pins the failure rule for incarnation
// writes: an image whose device write fails stays staged and readable, so
// no lookup ever returns a value older than the last call for its key
// wrote. Every key is written as v1, then as v2 under a seeded schedule of
// write faults, through single-key Inserts or InsertBatch windows. While
// images are pending, device reads of their addresses fail, so lookups
// must be served from the staged images, and the memory footprint counts
// them. After the faults clear, later inserts succeed, the staged images
// drain to the device, and every key reads back v2 (v1 is allowed only for
// a key whose v2 call failed).
func TestWriteFaultKeepsLastValues(t *testing.T) {
	errWrite := errors.New("injected write fault")
	errPendingRead := errors.New("device read of a pending image")
	devices := []struct {
		name string
		mk   func(clock *vclock.Clock) (faultyDevice, int)
	}{
		{"ssd", func(clock *vclock.Clock) (faultyDevice, int) {
			return ssd.New(ssd.IntelX18M(), 1<<20, clock), 64 << 10
		}},
		{"flashchip", func(clock *vclock.Clock) (faultyDevice, int) {
			return flashchip.New(flashchip.DefaultConfig(2<<20), clock), 128 << 10
		}},
		{"disk", func(clock *vclock.Clock) (faultyDevice, int) {
			return disk.New(disk.Hitachi7K80(), 1<<20, clock), 64 << 10
		}},
	}
	for di, dc := range devices {
		for _, batched := range []bool{false, true} {
			mode := "serial"
			if batched {
				mode = "batch"
			}
			t.Run(dc.name+"/"+mode, func(t *testing.T) {
				clock := vclock.New()
				dev, bufBytes := dc.mk(clock)
				b := mustNew(t, Config{
					Device:             dev,
					Clock:              clock,
					PartitionBits:      2,
					BufferBytes:        bufBytes,
					NumIncarnations:    4,
					FilterBitsPerEntry: 16,
					Seed:               42,
				})
				// Half the flash capacity: every key's v2 fits on flash
				// and in the buffers, so no key may miss.
				perBuf := bufBytes / 32
				nKeys := b.cfg.NumSuperTables() * b.cfg.NumIncarnations * perBuf / 2
				rng := rand.New(rand.NewSource(int64(500 + 2*di)))
				keys := make([]uint64, nKeys)
				for i := range keys {
					keys[i] = rng.Uint64()
				}
				val := func(version, i int) uint64 { return uint64(version)<<32 | uint64(i) }

				// write applies version to keys[lo:hi] in one call and reports
				// the call's error.
				write := func(version, lo, hi int) error {
					if !batched {
						return b.Insert(keys[lo], val(version, lo))
					}
					vs := make([]uint64, hi-lo)
					for i := range vs {
						vs[i] = val(version, lo+i)
					}
					return b.InsertBatch(keys[lo:hi], vs)
				}
				window := func() int {
					if batched {
						return 1 + rng.Intn(600)
					}
					return 1
				}

				for lo := 0; lo < nKeys; {
					hi := min(lo+window(), nKeys)
					if err := write(1, lo, hi); err != nil {
						t.Fatal(err)
					}
					lo = hi
				}

				// v2 under faults. faultRNG drives the schedule: each write
				// request of a submission fails with probability 1/4.
				faultRNG := rand.New(rand.NewSource(int64(600 + di)))
				dev.SetFault(func(op storage.Op, off int64, n int) error {
					switch op {
					case storage.OpWrite:
						if faultRNG.Intn(4) == 0 {
							return errWrite
						}
					case storage.OpRead:
						for _, s := range b.staged {
							if off < s.addr+int64(len(s.buf)) && s.addr < off+int64(n) {
								return errPendingRead
							}
						}
					}
					return nil
				})
				failed := make([]bool, nKeys)
				nFailed, pendingChecks := 0, 0
				for lo := 0; lo < nKeys; {
					hi := min(lo+window(), nKeys)
					err := write(2, lo, hi)
					if err != nil {
						if !errors.Is(err, errWrite) {
							t.Fatalf("keys [%d,%d): %v", lo, hi, err)
						}
						nFailed++
						for i := lo; i < hi; i++ {
							failed[i] = true
						}
					}
					if len(b.staged) > 0 && pendingChecks < 20 {
						// Images are pending: every key written so far must
						// read its latest value without touching them on
						// the device.
						pendingChecks++
						// Pending images are DRAM the footprint must count.
						want := int64(b.cfg.NumSuperTables()+len(b.staged)) * int64(bufBytes)
						if got := b.MemoryFootprint().BufferBytes; got != want {
							t.Fatalf("BufferBytes %d with %d images pending, want %d",
								got, len(b.staged), want)
						}
						if stale := staleKeys(t, b, keys, hi, val, failed); stale != "" {
							t.Fatalf("with %d images pending after keys [%d,%d): %s",
								len(b.staged), lo, hi, stale)
						}
					}
					lo = hi
				}
				// Faults clear: later inserts succeed and the pending images
				// reach the device.
				dev.SetFault(nil)
				writes := dev.Counters().Writes
				if err := write(2, 0, min(window(), nKeys)); err != nil {
					t.Fatalf("insert after faults cleared: %v", err)
				}
				if err := b.Flush(); err != nil {
					t.Fatalf("flush after faults cleared: %v", err)
				}
				if len(b.staged) != 0 {
					t.Fatalf("%d images still staged after a clean flush", len(b.staged))
				}
				if dev.Counters().Writes <= writes {
					t.Fatal("device write counter did not grow after faults cleared")
				}
				if stale := staleKeys(t, b, keys, nKeys, val, failed); stale != "" {
					t.Fatalf("after faults cleared (%d failed calls): %s", nFailed, stale)
				}
				if nFailed == 0 || pendingChecks == 0 {
					t.Fatalf("schedule produced %d failed calls, %d pending checks; retune the seed",
						nFailed, pendingChecks)
				}
			})
		}
	}
}

// staleKeys looks up keys[:n] one by one and describes every key that
// misses or returns a value older than its last write: v2, or v1 for a key
// whose v2 call failed. It returns "" when every key is current.
func staleKeys(t *testing.T, b *BufferHash, keys []uint64, n int, val func(version, i int) uint64, failed []bool) string {
	t.Helper()
	stale, first := 0, ""
	for i, k := range keys[:n] {
		res, err := b.Lookup(k)
		if err != nil {
			t.Fatalf("lookup of key %d: %v", i, err)
		}
		if res.Found && (res.Value == val(2, i) || failed[i] && res.Value == val(1, i)) {
			continue
		}
		if stale == 0 {
			first = fmt.Sprintf("key %d: %+v", i, res)
		}
		stale++
	}
	if stale == 0 {
		return ""
	}
	return fmt.Sprintf("%d of %d keys stale or missing (first %s)", stale, n, first)
}

// nthWriteFault is a plain device (no BatchWriter, so submissions take
// storage.WriteBatchFallback) whose failIn-th WriteAt call from arming
// fails without writing. It counts the writes that land per address.
type nthWriteFault struct {
	storage.Device
	failIn int // WriteAt calls up to the failing one; 0 = no fault armed
	writes map[int64]int
}

var errNthWrite = errors.New("injected fault on the n-th write")

func (d *nthWriteFault) WriteAt(p []byte, off int64) (time.Duration, error) {
	if d.failIn > 0 {
		if d.failIn--; d.failIn == 0 {
			return 0, errNthWrite
		}
	}
	lat, err := d.Device.WriteAt(p, off)
	if err == nil {
		d.writes[off]++
	}
	return lat, err
}

// TestFallbackWriteFaultKeepsOnlyUnwritten pins the failure rule on a
// plain device, whose serial fallback stops part-way: when the k-th write
// of a submission fails, the k-1 images written before it are released
// and never written again, only the rest stay staged, and once the fault
// clears every key reads its latest value.
func TestFallbackWriteFaultKeepsOnlyUnwritten(t *testing.T) {
	for _, k := range []int{1, 2, 3} {
		t.Run(fmt.Sprintf("write%d", k), func(t *testing.T) {
			clock := vclock.New()
			dev := &nthWriteFault{Device: ssd.New(ssd.IntelX18M(), 1<<20, clock), writes: map[int64]int{}}
			b := mustNew(t, Config{
				Device:             dev,
				Clock:              clock,
				PartitionBits:      1,
				BufferBytes:        16 << 10,
				NumIncarnations:    8,
				FilterBitsPerEntry: 16,
				Seed:               7,
			})
			// 3000 keys over 2 tables of 512-entry buffers: v1 flushes
			// about 4 images and v2 about 6 more, all to distinct slots of
			// the 16-slot log.
			rng := rand.New(rand.NewSource(int64(800 + k)))
			keys := make([]uint64, 3000)
			v1, v2 := make([]uint64, len(keys)), make([]uint64, len(keys))
			for i := range keys {
				keys[i], v1[i], v2[i] = rng.Uint64(), uint64(i), uint64(i)+1<<32
			}
			if err := b.InsertBatch(keys, v1); err != nil {
				t.Fatal(err)
			}

			flushes := b.Stats().Flushes
			before := maps.Clone(dev.writes)
			dev.failIn = k
			if err := b.InsertBatch(keys, v2); !errors.Is(err, errNthWrite) {
				t.Fatalf("InsertBatch under a fault on write %d: %v", k, err)
			}
			submitted := int(b.Stats().Flushes - flushes)
			if submitted <= k {
				t.Fatalf("only %d images in the submission; need more than %d", submitted, k)
			}
			landed := map[int64]bool{}
			for addr, n := range dev.writes {
				if n > before[addr] {
					landed[addr] = true
				}
			}
			if len(landed) != k-1 || len(b.staged) != submitted-(k-1) {
				t.Fatalf("after write %d of %d failed: %d images landed, %d staged; want %d and %d",
					k, submitted, len(landed), len(b.staged), k-1, submitted-(k-1))
			}
			for _, s := range b.staged {
				if landed[s.addr] {
					t.Fatalf("image at %d landed and is still staged", s.addr)
				}
			}

			// The fault clears: Flush writes the staged images once and the
			// landed ones not again.
			afterFault := maps.Clone(dev.writes)
			if err := b.Flush(); err != nil {
				t.Fatal(err)
			}
			if len(b.staged) != 0 {
				t.Fatalf("%d images still staged after a clean flush", len(b.staged))
			}
			for addr := range landed {
				if dev.writes[addr] != afterFault[addr] {
					t.Fatalf("landed image at %d written again", addr)
				}
			}
			res := make([]LookupResult, len(keys))
			if err := b.LookupBatch(keys, res); err != nil {
				t.Fatal(err)
			}
			for i, r := range res {
				if !r.Found || r.Value != v2[i] {
					t.Fatalf("key %d: %+v, want value %#x", i, r, v2[i])
				}
			}
		})
	}
}
