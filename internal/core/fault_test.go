package core

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

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
