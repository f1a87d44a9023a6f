package clam

import (
	"fmt"
	"math/bits"
	"testing"

	"repro/internal/core"
)

// bankBytes is the allocation of one super table's Bloom bank: m rows of
// the narrowest 8/16/32/64-bit lane that holds k bits, plus the m-bit
// staging bitmap, each rounded up to whole 64-bit words. pad is the part of
// the rows beyond k bits per row, zero at k = 8, 16, 32 or 64.
func bankBytes(m uint64, k int) (rows, staging, pad int64) {
	lane := uint64(8) << max(0, bits.Len(uint(k-1))-3)
	rows = int64((m*lane + 63) / 64 * 8)
	return rows, int64((m + 63) / 64 * 8), rows - int64(m*uint64(k)/8)
}

// shardConfigs returns the core configuration of every shard of s.
func shardConfigs(t *testing.T, s Store) []core.Config {
	switch s := s.(type) {
	case *CLAM:
		return []core.Config{s.bh.Config()}
	case *Sharded:
		cfgs := make([]core.Config, len(s.shards))
		for i, c := range s.shards {
			cfgs[i] = c.bh.Config()
		}
		return cfgs
	}
	t.Fatalf("unexpected store type %T", s)
	return nil
}

func TestMemoryFootprintWithinBudget(t *testing.T) {
	// The DRAM WithMemory promises: BloomBytes is exactly what the banks
	// allocate, and the whole footprint stays within the budget plus the
	// allowances its doc comment names — one m-bit staging bitmap per
	// super table and the incarnation metadata. Lane padding gets no
	// allowance: m is sized from the lane width. The grid derives k = 16
	// (most cases), k = 12 and k = 10 (lanes padded beyond k), and k = 4
	// with the filter bits capped.
	const mib = 1 << 20
	for _, dev := range []DeviceKind{IntelSSD, FlashChip, MagneticDisk} {
		for _, shards := range []int{1, 8} {
			for _, fm := range [][2]int64{
				{16 * mib, 4 * mib},
				{64 * mib, 16 * mib},
				{128 * mib, 16 * mib},
				{256 * mib, 64 * mib},
				{48 * mib, 16 * mib},
				{40 * mib, 8 * mib},
				{4 * mib, 16 * mib},
			} {
				flash, memory := fm[0], fm[1]
				name := fmt.Sprintf("%s/shards=%d/flash=%dMiB/mem=%dMiB", dev, shards, flash/mib, memory/mib)
				t.Run(name, func(t *testing.T) {
					s, err := Open(WithDevice(dev), WithFlash(flash), WithMemory(memory), WithShards(shards))
					if err != nil {
						t.Fatal(err)
					}
					var rows, staging, pad int64
					for _, cfg := range shardConfigs(t, s) {
						k := cfg.NumIncarnations
						r, st, p := bankBytes(cfg.FilterBits(), k)
						if p != 0 && (k == 8 || k == 16 || k == 32 || k == 64) {
							t.Fatalf("k=%d rows padded by %d bytes", k, p)
						}
						nt := int64(cfg.NumSuperTables())
						rows += nt * r
						staging += nt * st
						pad += nt * p
					}
					mem := s.Stats().Memory
					if mem.BloomBytes != rows+staging {
						t.Fatalf("BloomBytes = %d, want rows %d + staging %d", mem.BloomBytes, rows, staging)
					}
					if limit := memory + staging + mem.MetadataBytes; mem.Total() > limit {
						t.Fatalf("footprint %d > budget %d + staging %d + metadata %d (buffers %d, rows %d, of which lane padding %d)",
							mem.Total(), memory, staging, mem.MetadataBytes, mem.BufferBytes, rows, pad)
					}
				})
			}
		}
	}
}
