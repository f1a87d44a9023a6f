// Package flashchip models a raw NAND flash chip: 2 KB pages grouped into
// 128 KB erase blocks, with the three NAND invariants the paper's design
// principles P1–P3 (§4) derive from:
//
//   - a page must be erased before it can be programmed (written);
//   - pages within an erase block must be programmed in order;
//   - erase operates on whole blocks only.
//
// I/O latencies follow the linear cost model of §6.1: reading, writing and
// erasing x bytes cost a_r + b_r·x, a_w + b_w·x and a_e + b_e·x. A single
// multi-page call pays the fixed cost once, which is exactly the batching
// benefit (P3) BufferHash exploits when flushing a buffer.
//
// Erased pages read as 0xFF, as on real NAND.
package flashchip

import (
	"fmt"
	"time"

	"repro/internal/storage"
	"repro/internal/vclock"
)

// CostModel holds the linear I/O cost parameters of §6.1.
type CostModel struct {
	ReadFixed    time.Duration // a_r
	ReadPerByte  time.Duration // b_r
	WriteFixed   time.Duration // a_w
	WritePerByte time.Duration // b_w
	EraseFixed   time.Duration // a_e
	ErasePerByte time.Duration // b_e
}

// Read returns the cost of reading n bytes in one operation.
func (c CostModel) Read(n int64) time.Duration {
	return c.ReadFixed + time.Duration(n)*c.ReadPerByte
}

// Write returns the cost of writing n bytes in one operation.
func (c CostModel) Write(n int64) time.Duration {
	return c.WriteFixed + time.Duration(n)*c.WritePerByte
}

// Erase returns the cost of erasing n bytes in one operation.
func (c CostModel) Erase(n int64) time.Duration {
	return c.EraseFixed + time.Duration(n)*c.ErasePerByte
}

// DefaultCosts is calibrated so that a 2 KB page read costs ≈0.24 ms (the
// per-I/O lookup latency the paper reports for the flash chip in Table 2), a
// 128 KB buffer flush costs ≈6.8 ms, and a block erase ≈1.5 ms.
func DefaultCosts() CostModel {
	return CostModel{
		ReadFixed:    100 * time.Microsecond,
		ReadPerByte:  70 * time.Nanosecond,
		WriteFixed:   150 * time.Microsecond,
		WritePerByte: 50 * time.Nanosecond,
		EraseFixed:   1500 * time.Microsecond,
		ErasePerByte: 0,
	}
}

// Config describes a chip.
type Config struct {
	Capacity  int64 // bytes; must be a multiple of BlockSize
	PageSize  int   // bytes; default 2048
	BlockSize int   // bytes; default 128 KiB
	Costs     CostModel

	// Planes is the number of planes a batch can sense or program in
	// parallel (multi-plane operations): the chip's queue lanes. A single
	// request stays a blocking single-plane operation. 0 or 1 disables
	// overlap.
	Planes int
}

// DefaultConfig returns a chip configuration with the paper's geometry
// (2 KB pages, 128 KB blocks, two-plane dies) and DefaultCosts.
func DefaultConfig(capacity int64) Config {
	return Config{
		Capacity:  capacity,
		PageSize:  2048,
		BlockSize: 128 << 10,
		Costs:     DefaultCosts(),
		Planes:    2,
	}
}

// Chip is a simulated NAND flash chip. It implements storage.Device and
// storage.Eraser. Chip is not safe for concurrent use; callers serialize
// (the paper notes flash I/Os are blocking operations, §5.2).
type Chip struct {
	cfg      Config
	q        storage.Queue
	frontier []int32 // per block: number of programmed pages (program order enforcement)
	eraseCnt []uint32
}

// New builds a chip. It panics on invalid geometry, since configurations are
// static in this codebase.
func New(cfg Config, clock *vclock.Clock) *Chip {
	if cfg.PageSize <= 0 || cfg.BlockSize <= 0 || cfg.BlockSize%cfg.PageSize != 0 {
		panic(fmt.Sprintf("flashchip: invalid geometry page=%d block=%d", cfg.PageSize, cfg.BlockSize))
	}
	if cfg.Capacity <= 0 || cfg.Capacity%int64(cfg.BlockSize) != 0 {
		panic(fmt.Sprintf("flashchip: capacity %d not a multiple of block size %d", cfg.Capacity, cfg.BlockSize))
	}
	nBlocks := cfg.Capacity / int64(cfg.BlockSize)
	c := &Chip{
		cfg:      cfg,
		frontier: make([]int32, nBlocks),
		eraseCnt: make([]uint32, nBlocks),
	}
	c.q = storage.Queue{
		Geometry:   storage.Geometry{Capacity: cfg.Capacity, PageSize: cfg.PageSize, BlockSize: cfg.BlockSize},
		WriteAlign: cfg.PageSize,
		Lanes:      cfg.Planes,
		Store:      storage.NewSparseStore(cfg.PageSize, 0xFF),
		Clock:      clock,
		Service:    c.service,
	}
	return c
}

// SetFault installs a fault-injection hook (nil clears it).
func (c *Chip) SetFault(f storage.FaultFunc) { c.q.Fault = f }

// Geometry implements storage.Device.
func (c *Chip) Geometry() storage.Geometry { return c.q.Geometry }

// Counters implements storage.Device.
func (c *Chip) Counters() storage.Counters { return c.q.Counters }

// EraseCount returns how many times the block containing off was erased
// (wear accounting).
func (c *Chip) EraseCount(off int64) uint32 {
	return c.eraseCnt[off/int64(c.cfg.BlockSize)]
}

// ReadAt reads len(p) bytes at off as a ReadBatch of one request.
func (c *Chip) ReadAt(p []byte, off int64) (time.Duration, error) {
	return c.ReadBatch([]storage.ReadReq{{P: p, Off: off}})
}

// WriteAt programs len(p) bytes at off as a WriteBatch of one request.
func (c *Chip) WriteAt(p []byte, off int64) (time.Duration, error) {
	return c.WriteBatch([]storage.WriteReq{{P: p, Off: off}})
}

// ReadBatch implements storage.BatchReader through the chip's queue, with
// its planes as lanes. Reads may start at any byte offset, but every page
// touched is charged (P2: a sub-page I/O costs at least a full-page I/O).
func (c *Chip) ReadBatch(reqs []storage.ReadReq) (time.Duration, error) {
	if ok, err := c.q.Admit(storage.OpRead, reqs); !ok {
		return 0, err
	}
	return c.q.Charge(c.q.Serve(storage.OpRead, reqs)), nil
}

// WriteBatch implements storage.BatchWriter through the chip's queue, with
// its planes as lanes. Every request must be page-aligned, and the
// address-sorted batch must program each block's pages in order, each
// request continuing where the block's frontier, or the request sorted
// before it, left off. A batch that breaks program order fails with
// ErrProgramOrder and programs nothing.
func (c *Chip) WriteBatch(reqs []storage.WriteReq) (time.Duration, error) {
	if ok, err := c.q.Admit(storage.OpWrite, reqs); !ok {
		return 0, err
	}
	if err := c.program(reqs); err != nil {
		return 0, err
	}
	return c.q.Charge(c.q.Serve(storage.OpWrite, reqs)), nil
}

// service is the Queue's Service: the linear costs of §6.1, a read
// charged for every page it touches. A new run adds the fixed array-access
// or program setup.
func (c *Chip) service(op storage.Op, off, n int64, newRun bool) time.Duration {
	if op == storage.OpRead {
		lat := time.Duration(c.q.Geometry.PageSpan(off, n)) * c.cfg.Costs.ReadPerByte
		if newRun {
			lat += c.cfg.Costs.ReadFixed
		}
		return lat
	}
	lat := time.Duration(n) * c.cfg.Costs.WritePerByte
	if newRun {
		lat += c.cfg.Costs.WriteFixed
	}
	return lat
}

// program checks that the address-sorted, page-aligned write batch reqs
// programs every block's pages in order, and only then advances the
// frontiers, so a batch that breaks the order leaves the chip unchanged. A
// request sorted after another in the same block must start where the
// earlier one ended: the earlier request moves the frontier of the block
// it ends in.
func (c *Chip) program(reqs []storage.WriteReq) error {
	ps := int64(c.cfg.PageSize)
	ppb := int64(c.cfg.BlockSize / c.cfg.PageSize)
	prevEnd := int64(0) // page after the previous non-empty request
	for _, r := range reqs {
		start, end := r.Off/ps, (r.Off+int64(len(r.P)))/ps
		for pg := start; pg < end; pg = (pg/ppb + 1) * ppb {
			blk := pg / ppb
			f := int64(c.frontier[blk])
			if prevEnd > blk*ppb {
				f = min(prevEnd-blk*ppb, ppb)
			}
			if pg%ppb != f {
				return fmt.Errorf("%w: block %d frontier %d, write starts at page %d",
					storage.ErrProgramOrder, blk, f, pg%ppb)
			}
		}
		if end > start {
			prevEnd = end
		}
	}
	for _, r := range reqs {
		end := (r.Off + int64(len(r.P))) / ps
		for pg := r.Off / ps; pg < end; pg = (pg/ppb + 1) * ppb {
			blk := pg / ppb
			c.frontier[blk] = int32(min(end, (blk+1)*ppb) - blk*ppb)
		}
	}
	return nil
}

// Erase erases the blocks covering [off, off+n). The range must be
// block-aligned. Erased pages read back as 0xFF.
func (c *Chip) Erase(off, n int64) (time.Duration, error) {
	if err := storage.CheckRange(c.q.Geometry, off, n, c.cfg.BlockSize); err != nil {
		return 0, err
	}
	if c.q.Fault != nil {
		if err := c.q.Fault(storage.OpErase, off, int(n)); err != nil {
			return 0, err
		}
	}
	bs := int64(c.cfg.BlockSize)
	nBlocks := n / bs
	// Per §6.1 the erase cost of a single flush is a_e + b_e·(blocks·S_b):
	// one fixed initialization plus per-byte cost.
	lat := c.cfg.Costs.Erase(n)
	for b := off / bs; b < off/bs+nBlocks; b++ {
		c.frontier[b] = 0
		c.eraseCnt[b]++
	}
	c.q.Store.Drop(off, n)
	c.q.Counters.Erases += uint64(nBlocks)
	return c.q.Charge(lat), nil
}

var (
	_ storage.Device = (*Chip)(nil)
	_ storage.Eraser = (*Chip)(nil)
)
