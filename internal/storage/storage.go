// Package storage defines the block-device abstraction shared by all
// simulated media (flash chip, SSD, magnetic disk) and the sparse byte store
// backing them.
//
// Devices operate in virtual time: every I/O returns the simulated service
// latency and advances the shared vclock.Clock by it. Devices store real
// bytes, so data integrity is verified end to end by the tests — the latency
// model and the data path are exercised together.
//
// Those bytes live in a SparseStore, which allocates host memory in chunks
// of 64 device pages (256 KiB at the SSD's 4 KiB sectors, 128 KiB — one
// erase block — at the flash chip's 2 KiB pages) as they are first written.
// A simulated device costs one chunk per 64-page span it has touched, plus
// a directory of 8 bytes per chunk in each 512-chunk group touched (a
// "32 GB" SSD with a few scattered writes costs a few chunks and a few KiB
// of directory, not 32 GB). Regions never written, or dropped by an erase
// or trim, read as the device's fill byte.
//
// Every Device is a BatchReader and a BatchWriter: it takes queued
// submissions of many reads or writes. The batched lookup pipeline in
// internal/core feeds coalesced flash probes through ReadBatch, and the
// batched insert pipeline feeds the incarnation images its flushes produce
// through WriteBatch. Every device model serves them through one Queue,
// which holds the overlap model; the model supplies only what one request
// costs (Queue.Service). ReadAt and WriteAt are a batch of one request.
package storage

import (
	"errors"
	"fmt"
	"time"
)

// Op identifies a device operation for fault injection and accounting.
type Op int

// Device operations.
const (
	OpRead Op = iota
	OpWrite
	OpErase
)

// String returns the operation name.
func (o Op) String() string {
	switch o {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpErase:
		return "erase"
	default:
		return fmt.Sprintf("op(%d)", int(o))
	}
}

// FaultFunc is a fault-injection hook. If it returns a non-nil error for an
// operation, the device fails that operation with the error (after charging
// no latency). Tests use this to exercise error paths.
type FaultFunc func(op Op, off int64, n int) error

// Geometry describes a device's addressing structure.
type Geometry struct {
	// Capacity is the usable size in bytes.
	Capacity int64
	// PageSize is the smallest read/write unit in bytes (flash page or SSD
	// sector). Disk models use it as the sector size.
	PageSize int
	// BlockSize is the erase-block size in bytes, or 0 for media without an
	// erase constraint (magnetic disk).
	BlockSize int
}

// Pages returns the number of pages on the device.
func (g Geometry) Pages() int64 { return g.Capacity / int64(g.PageSize) }

// PageSpan returns the bytes of the whole pages that n bytes at off touch,
// and one page for a zero-length access: a sub-page I/O costs a full page
// (P2).
func (g Geometry) PageSpan(off, n int64) int64 {
	ps := int64(g.PageSize)
	first, last := off/ps, (off+n-1)/ps
	if n == 0 {
		last = first
	}
	return (last - first + 1) * ps
}

// Blocks returns the number of erase blocks, or 0 if BlockSize is 0.
func (g Geometry) Blocks() int64 {
	if g.BlockSize == 0 {
		return 0
	}
	return g.Capacity / int64(g.BlockSize)
}

// Counters accumulates I/O accounting for a device.
type Counters struct {
	Reads        uint64
	Writes       uint64
	Erases       uint64
	BytesRead    uint64
	BytesWritten uint64
	// PagesMoved counts garbage-collection relocations (SSD FTL).
	PagesMoved uint64
	// GCRuns counts synchronous garbage-collection episodes (SSD FTL).
	GCRuns uint64
	// BusyTime is the total simulated service time.
	BusyTime time.Duration
}

// Add accumulates another device's counters into c. Sharded deployments sum
// the per-shard device counters into one fleet-wide view; BusyTime becomes
// the total service time across all devices (shard clocks are independent,
// so it can exceed any single clock's reading).
func (c *Counters) Add(o Counters) {
	c.Reads += o.Reads
	c.Writes += o.Writes
	c.Erases += o.Erases
	c.BytesRead += o.BytesRead
	c.BytesWritten += o.BytesWritten
	c.PagesMoved += o.PagesMoved
	c.GCRuns += o.GCRuns
	c.BusyTime += o.BusyTime
}

// Device is a virtual-time block storage device.
//
// Offsets and lengths must respect the device's page alignment; devices
// return an error otherwise. All methods advance the device's clock by the
// returned latency.
type Device interface {
	BatchReader
	BatchWriter
	// ReadAt reads len(p) bytes at off and returns the simulated latency:
	// a ReadBatch of one request.
	ReadAt(p []byte, off int64) (time.Duration, error)
	// WriteAt writes len(p) bytes at off and returns the simulated latency:
	// a WriteBatch of one request.
	WriteAt(p []byte, off int64) (time.Duration, error)
	// Geometry returns the device's addressing structure.
	Geometry() Geometry
	// Counters returns a snapshot of the device's I/O accounting.
	Counters() Counters
}

// Eraser is implemented by devices with an explicit erase operation (raw
// flash chips). Offsets and sizes must be erase-block aligned.
type Eraser interface {
	Erase(off, n int64) (time.Duration, error)
}

// Trimmer is implemented by devices that accept invalidation hints (SSDs).
// Trimming tells the FTL the range no longer holds live data.
type Trimmer interface {
	Trim(off, n int64) error
}

// Common device errors.
var (
	ErrOutOfRange   = errors.New("storage: offset out of range")
	ErrUnaligned    = errors.New("storage: unaligned access")
	ErrNotErased    = errors.New("storage: write to non-erased flash page")
	ErrProgramOrder = errors.New("storage: out-of-order page program within erase block")
)

// CheckRange validates [off, off+n) against the geometry and the alignment
// unit `align`. It compares n with the room left after off, so no off or
// n, however large, can wrap the test.
func CheckRange(g Geometry, off, n int64, align int) error {
	if off < 0 || n < 0 || n > g.Capacity-off {
		return fmt.Errorf("%w: off=%d n=%d cap=%d", ErrOutOfRange, off, n, g.Capacity)
	}
	if align > 1 && (off%int64(align) != 0 || n%int64(align) != 0) {
		return fmt.Errorf("%w: off=%d n=%d align=%d", ErrUnaligned, off, n, align)
	}
	return nil
}
