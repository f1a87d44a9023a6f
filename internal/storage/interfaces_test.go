package storage_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"
	"time"

	"repro/internal/disk"
	"repro/internal/flashchip"
	"repro/internal/ssd"
	"repro/internal/storage"
	"repro/internal/vclock"
)

// These tests pin the storage-layer contracts the value log and the
// incarnation layouts rely on: SparseStore.Drop's page-boundary behaviour
// and the Trimmer/Eraser optional interfaces as seen through a plain
// storage.Device.

func TestSparseStoreDropBoundaryCases(t *testing.T) {
	const page = 16
	fresh := func() *storage.SparseStore {
		s := storage.NewSparseStore(page, 0xEE)
		data := make([]byte, 5*page)
		for i := range data {
			data[i] = byte(i)
		}
		s.WriteAt(data, 0)
		return s
	}
	check := func(t *testing.T, s *storage.SparseStore, dropOff, dropN int64) {
		t.Helper()
		got := make([]byte, 5*page)
		s.ReadAt(got, 0)
		for i := int64(0); i < int64(len(got)); i++ {
			want := byte(i)
			if i >= dropOff && i < dropOff+dropN {
				want = 0xEE
			}
			if got[i] != want {
				t.Fatalf("byte %d = %#x, want %#x (drop [%d, %d))", i, got[i], want, dropOff, dropOff+dropN)
			}
		}
	}

	t.Run("exactly-page-aligned", func(t *testing.T) {
		s := fresh()
		s.Drop(page, 2*page)
		if s.PagesAllocated() != 3 {
			t.Fatalf("PagesAllocated = %d, want 3 (two whole pages freed)", s.PagesAllocated())
		}
		check(t, s, page, 2*page)
	})
	t.Run("straddles-both-boundaries", func(t *testing.T) {
		// Partial page 0 tail + whole pages 1,2 + partial page 3 head.
		s := fresh()
		s.Drop(page-4, 2*page+8)
		if s.PagesAllocated() != 3 {
			t.Fatalf("PagesAllocated = %d, want 3", s.PagesAllocated())
		}
		check(t, s, page-4, 2*page+8)
	})
	t.Run("within-one-page", func(t *testing.T) {
		s := fresh()
		s.Drop(page+3, 7)
		if s.PagesAllocated() != 5 {
			t.Fatalf("PagesAllocated = %d, want 5 (no page fully covered)", s.PagesAllocated())
		}
		check(t, s, page+3, 7)
	})
	t.Run("ends-exactly-on-boundary", func(t *testing.T) {
		s := fresh()
		s.Drop(page+4, page-4) // tail of page 1 only, up to page 2's start
		if s.PagesAllocated() != 5 {
			t.Fatalf("PagesAllocated = %d, want 5", s.PagesAllocated())
		}
		check(t, s, page+4, page-4)
	})
	t.Run("single-byte", func(t *testing.T) {
		s := fresh()
		s.Drop(2*page, 1)
		check(t, s, 2*page, 1)
	})
	t.Run("unallocated-pages-are-noop", func(t *testing.T) {
		s := storage.NewSparseStore(page, 0xEE)
		s.WriteAt(make([]byte, page), 0)
		s.Drop(3*page, 2*page) // never written
		if s.PagesAllocated() != 1 {
			t.Fatalf("PagesAllocated = %d, want 1", s.PagesAllocated())
		}
	})
}

// TestTrimmerInterface exercises Trim through the optional interface from
// a plain Device value, on both FTL flavours.
func TestTrimmerInterface(t *testing.T) {
	for _, tc := range []struct {
		name string
		dev  storage.Device
	}{
		{"page-mapped", ssd.New(ssd.IntelX18M(), 4<<20, vclock.New())},
		{"block-mapped", ssd.New(ssd.TranscendTS32(), 4<<20, vclock.New())},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr, ok := tc.dev.(storage.Trimmer)
			if !ok {
				t.Fatal("SSD does not expose storage.Trimmer")
			}
			page := tc.dev.Geometry().PageSize
			data := bytes.Repeat([]byte{0xAB}, 2*page)
			if _, err := tc.dev.WriteAt(data, 0); err != nil {
				t.Fatal(err)
			}
			// Trim the first page only; the second must survive.
			if err := tr.Trim(0, int64(page)); err != nil {
				t.Fatal(err)
			}
			got := make([]byte, 2*page)
			if _, err := tc.dev.ReadAt(got, 0); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < page; i++ {
				if got[i] != 0 {
					t.Fatalf("trimmed byte %d = %#x, want 0", i, got[i])
				}
			}
			// The block-mapped FTL trims whole erase blocks (it has no
			// per-page map), so only the page-mapped device guarantees the
			// neighbouring page survives a sub-block trim.
			if tc.name == "page-mapped" && !bytes.Equal(got[page:], data[page:]) {
				t.Fatal("untrimmed page corrupted")
			}
			// Partial-page trims must be rejected as unaligned.
			if err := tr.Trim(int64(page/2), int64(page)); !errors.Is(err, storage.ErrUnaligned) {
				t.Fatalf("partial-page trim: %v, want ErrUnaligned", err)
			}
			if err := tr.Trim(0, int64(page)/2); !errors.Is(err, storage.ErrUnaligned) {
				t.Fatalf("partial-page-length trim: %v, want ErrUnaligned", err)
			}
		})
	}
	// Disks have no FTL and must NOT advertise Trimmer.
	if _, ok := interface{}(disk.New(disk.Hitachi7K80(), 4<<20, vclock.New())).(storage.Trimmer); ok {
		t.Fatal("disk claims storage.Trimmer")
	}
}

// TestEraserInterface exercises Erase through the optional interface from
// a plain Device value.
func TestEraserInterface(t *testing.T) {
	var dev storage.Device = flashchip.New(flashchip.DefaultConfig(1<<20), vclock.New())
	er, ok := dev.(storage.Eraser)
	if !ok {
		t.Fatal("flash chip does not expose storage.Eraser")
	}
	g := dev.Geometry()
	bs := int64(g.BlockSize)

	// Program block 0, then overwrite without erase: must fail.
	page := make([]byte, g.PageSize)
	for i := range page {
		page[i] = 0x5A
	}
	if _, err := dev.WriteAt(page, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := dev.WriteAt(page, 0); !errors.Is(err, storage.ErrNotErased) && !errors.Is(err, storage.ErrProgramOrder) {
		t.Fatalf("rewrite without erase: %v, want ErrNotErased/ErrProgramOrder", err)
	}
	// Erase the block: contents read as 0xFF and the page can be
	// programmed again.
	if lat, err := er.Erase(0, bs); err != nil || lat <= 0 {
		t.Fatalf("erase: lat=%v err=%v", lat, err)
	}
	got := make([]byte, g.PageSize)
	if _, err := dev.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	for i, b := range got {
		if b != 0xFF {
			t.Fatalf("erased byte %d = %#x, want 0xFF", i, b)
		}
	}
	if _, err := dev.WriteAt(page, 0); err != nil {
		t.Fatalf("program after erase: %v", err)
	}

	// Erase must be block-aligned, in offset and length.
	if _, err := er.Erase(bs/2, bs); !errors.Is(err, storage.ErrUnaligned) {
		t.Fatalf("partial-block erase offset: %v, want ErrUnaligned", err)
	}
	if _, err := er.Erase(0, bs/2); !errors.Is(err, storage.ErrUnaligned) {
		t.Fatalf("partial-block erase length: %v, want ErrUnaligned", err)
	}
	if _, err := er.Erase(g.Capacity, bs); !errors.Is(err, storage.ErrOutOfRange) {
		t.Fatalf("out-of-range erase: %v, want ErrOutOfRange", err)
	}

	// SSDs hide their erase behind the FTL and must NOT advertise Eraser.
	if _, ok := interface{}(ssd.New(ssd.IntelX18M(), 4<<20, vclock.New())).(storage.Eraser); ok {
		t.Fatal("SSD claims storage.Eraser")
	}
}

// TestBatchWriterContract exercises WriteBatch on every device model
// against a twin device driven by serial WriteAt: identical stored bytes
// and write counters, and batch service time never above the serial sum
// (sorting and lane overlap can only help).
func TestBatchWriterContract(t *testing.T) {
	mkDevices := func() map[string]storage.Device {
		return map[string]storage.Device{
			"ssd-intel":     ssd.New(ssd.IntelX18M(), 4<<20, vclock.New()),
			"ssd-transcend": ssd.New(ssd.TranscendTS32(), 4<<20, vclock.New()),
			"chip":          flashchip.New(flashchip.DefaultConfig(4<<20), vclock.New()),
			"disk":          disk.New(disk.Hitachi7K80(), 4<<20, vclock.New()),
		}
	}
	serialDevs, batchDevs := mkDevices(), mkDevices()
	for name := range serialDevs {
		t.Run(name, func(t *testing.T) {
			sd, bd := serialDevs[name], batchDevs[name]
			// 128 KB chunks (whole erase blocks on NAND) at scattered,
			// non-contiguous addresses, submitted in descending order so the
			// batch path must sort.
			const chunk = 128 << 10
			var reqs []storage.WriteReq
			for i := 7; i >= 0; i-- {
				p := bytes.Repeat([]byte{byte('A' + i)}, chunk)
				reqs = append(reqs, storage.WriteReq{P: p, Off: int64(i) * 2 * chunk})
			}
			var serialSum time.Duration
			for i := len(reqs) - 1; i >= 0; i-- { // ascending order for the serial twin
				lat, err := sd.WriteAt(reqs[i].P, reqs[i].Off)
				if err != nil {
					t.Fatal(err)
				}
				serialSum += lat
			}
			batchLat, err := bd.WriteBatch(reqs)
			if err != nil {
				t.Fatal(err)
			}
			if batchLat <= 0 || batchLat > serialSum {
				t.Fatalf("batch latency %v outside (0, serial sum %v]", batchLat, serialSum)
			}
			sc, bc := sd.Counters(), bd.Counters()
			if bc.Writes != sc.Writes || bc.BytesWritten != sc.BytesWritten {
				t.Fatalf("write counters diverge: serial %+v, batched %+v", sc, bc)
			}
			got := make([]byte, chunk)
			want := make([]byte, chunk)
			for _, r := range reqs {
				if _, err := bd.ReadAt(got, r.Off); err != nil {
					t.Fatal(err)
				}
				if _, err := sd.ReadAt(want, r.Off); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) || !bytes.Equal(got, r.P) {
					t.Fatalf("batched write at %d stored wrong bytes", r.Off)
				}
			}
		})
	}
}

// TestBatchWriterSequentialRunDiscount pins the run discount: a batch of
// address-contiguous writes must cost less than the same pages written as
// discontiguous requests (which pay the fixed cost every time).
func TestBatchWriterSequentialRunDiscount(t *testing.T) {
	mk := func() storage.BatchWriter {
		return ssd.New(ssd.IntelX18M(), 4<<20, vclock.New())
	}
	const page = 4096
	seq, scattered := mk(), mk()
	var seqReqs, scatReqs []storage.WriteReq
	for i := 0; i < 32; i++ {
		p := bytes.Repeat([]byte{byte(i)}, page)
		seqReqs = append(seqReqs, storage.WriteReq{P: p, Off: int64(i) * page})
		scatReqs = append(scatReqs, storage.WriteReq{P: p, Off: int64(i) * 3 * page})
	}
	seqLat, err := seq.WriteBatch(seqReqs)
	if err != nil {
		t.Fatal(err)
	}
	scatLat, err := scattered.WriteBatch(scatReqs)
	if err != nil {
		t.Fatal(err)
	}
	if seqLat >= scatLat {
		t.Fatalf("sequential batch %v not cheaper than scattered %v", seqLat, scatLat)
	}
}

// TestBatchWriterProgramOrder: on raw NAND a batch violating program order
// must fail, exactly as serial writes would, and, like every failed batch,
// write nothing: a request that breaks the order after one that keeps it
// leaves the clock, the counters, the stored bytes and the block frontiers
// as they were.
func TestBatchWriterProgramOrder(t *testing.T) {
	clock := vclock.New()
	chip := flashchip.New(flashchip.DefaultConfig(1<<20), clock)
	g := chip.Geometry()
	ps, bs := int64(g.PageSize), int64(g.BlockSize)
	p := bytes.Repeat([]byte{0x5A}, g.PageSize)
	// Page 1 of block 0 without page 0 first: out of order even after the
	// address sort.
	_, err := chip.WriteBatch([]storage.WriteReq{{P: p, Off: ps}})
	if !errors.Is(err, storage.ErrProgramOrder) {
		t.Fatalf("out-of-order batch write: %v, want ErrProgramOrder", err)
	}

	// Block 1 holds one programmed page. The batch programs its page 1 in
	// order, then skips page 2 of block 1; submitted in reverse, so the
	// breaking request sorts second.
	if _, err := chip.WriteAt(p, bs); err != nil {
		t.Fatal(err)
	}
	now, ctr := clock.Now(), chip.Counters()
	q := bytes.Repeat([]byte{0xA5}, g.PageSize)
	_, err = chip.WriteBatch([]storage.WriteReq{{P: q, Off: bs + 3*ps}, {P: q, Off: bs + ps}})
	if !errors.Is(err, storage.ErrProgramOrder) {
		t.Fatalf("batch breaking program order at its second request: %v, want ErrProgramOrder", err)
	}
	if clock.Now() != now {
		t.Fatalf("failed batch moved the clock from %v to %v", now, clock.Now())
	}
	if got := chip.Counters(); got != ctr {
		t.Fatalf("failed batch moved the counters from %+v to %+v", ctr, got)
	}
	got := make([]byte, 2*ps)
	if _, err := chip.ReadAt(got, bs); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[:ps], p) || !bytes.Equal(got[ps:], bytes.Repeat([]byte{0xFF}, g.PageSize)) {
		t.Fatal("failed batch changed the stored bytes")
	}
	// Block 1's frontier is still page 1: programming it succeeds, and
	// page 3 still breaks the order.
	if _, err := chip.WriteAt(q, bs+ps); err != nil {
		t.Fatalf("page 1 of block 1 after the failed batch: %v", err)
	}
	if _, err := chip.WriteAt(q, bs+3*ps); !errors.Is(err, storage.ErrProgramOrder) {
		t.Fatalf("page 3 of block 1 after the failed batch: %v, want ErrProgramOrder", err)
	}
}

// ioDevice is a device model with a fault hook, as every simulated medium
// provides.
type ioDevice interface {
	storage.Device
	SetFault(storage.FaultFunc)
}

// TestFailedBatchChangesNothing pins the contract BufferHash's flush rule
// rests on (a failed WriteBatch leaves every image staged): on every
// device model, a 5-request ReadBatch or WriteBatch whose fault hook fails
// request 3 returns the error and leaves the clock, the counters and the
// stored bytes as they were.
func TestFailedBatchChangesNothing(t *testing.T) {
	errInjected := errors.New("injected fault on request 3")
	for _, tc := range []struct {
		name string
		mk   func(*vclock.Clock) ioDevice
	}{
		{"ssd-intel", func(c *vclock.Clock) ioDevice { return ssd.New(ssd.IntelX18M(), 4<<20, c) }},
		{"ssd-transcend", func(c *vclock.Clock) ioDevice { return ssd.New(ssd.TranscendTS32(), 4<<20, c) }},
		{"chip", func(c *vclock.Clock) ioDevice { return flashchip.New(flashchip.DefaultConfig(4<<20), c) }},
		{"disk", func(c *vclock.Clock) ioDevice { return disk.New(disk.Hitachi7K80(), 4<<20, c) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clock := vclock.New()
			dev := tc.mk(clock)
			// Five page-aligned 4 KiB requests, each at the start of its own
			// 128 KiB erase block, with older bytes under the first three.
			const n, size, stride = 5, 4 << 10, 128 << 10
			for i := 0; i < 3; i++ {
				if _, err := dev.WriteAt(bytes.Repeat([]byte{byte('a' + i)}, size), int64(i)*stride); err != nil {
					t.Fatal(err)
				}
			}
			snapshot := func() []byte {
				all := make([]byte, n*size)
				for i := 0; i < n; i++ {
					if _, err := dev.ReadAt(all[i*size:(i+1)*size], int64(i)*stride); err != nil {
						t.Fatal(err)
					}
				}
				return all
			}
			failThird := func(op storage.Op) storage.FaultFunc {
				calls := 0
				return func(o storage.Op, off int64, n int) error {
					if o != op {
						return nil
					}
					if calls++; calls == 3 {
						return errInjected
					}
					return nil
				}
			}
			for _, op := range []storage.Op{storage.OpRead, storage.OpWrite} {
				stored := snapshot()
				now, ctr := clock.Now(), dev.Counters()
				dev.SetFault(failThird(op))
				var err error
				if op == storage.OpRead {
					reqs := make([]storage.ReadReq, n)
					for i := range reqs {
						reqs[i] = storage.ReadReq{P: make([]byte, size), Off: int64(i) * stride}
					}
					_, err = dev.ReadBatch(reqs)
				} else {
					reqs := make([]storage.WriteReq, n)
					for i := range reqs {
						reqs[i] = storage.WriteReq{P: bytes.Repeat([]byte{byte('V' + i)}, size), Off: int64(i) * stride}
					}
					_, err = dev.WriteBatch(reqs)
				}
				dev.SetFault(nil)
				if !errors.Is(err, errInjected) {
					t.Fatalf("%v batch: %v, want the injected fault", op, err)
				}
				if clock.Now() != now {
					t.Fatalf("%v batch moved the clock from %v to %v", op, now, clock.Now())
				}
				if got := dev.Counters(); got != ctr {
					t.Fatalf("%v batch moved the counters from %+v to %+v", op, ctr, got)
				}
				if !bytes.Equal(snapshot(), stored) {
					t.Fatalf("%v batch changed the stored bytes", op)
				}
			}
		})
	}
}

// TestSingleRequestIOGolden pins the single-request ReadAt/WriteAt
// behaviour of every device model. Each device runs a seeded stream of
// about 5k calls — aligned, unaligned, zero-length, multi-page and
// out-of-range reads and writes, with trims and idle gaps on the SSDs,
// erases on the chip and an injected fault every ~50 ops — and every
// call's latency, error text and read bytes, plus the final counters and
// clock, fold into one FNV-64 hash. The constants were taken from the
// models' original per-call cost code, so any change to what one request
// costs, when GC runs or what an error says shows up here.
func TestSingleRequestIOGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func(*vclock.Clock) ioDevice
		want uint64
	}{
		{"ssd-intel", func(c *vclock.Clock) ioDevice { return ssd.New(ssd.IntelX18M(), 2<<20, c) }, 0x0a324493aa9793f8},
		{"ssd-transcend", func(c *vclock.Clock) ioDevice { return ssd.New(ssd.TranscendTS32(), 2<<20, c) }, 0xa5fe5b620116416e},
		{"flash-chip", func(c *vclock.Clock) ioDevice { return flashchip.New(flashchip.DefaultConfig(4<<20), c) }, 0xc7074b3a11295bd5},
		{"disk", func(c *vclock.Clock) ioDevice { return disk.New(disk.Hitachi7K80(), 4<<20, c) }, 0x4f67075c1be88077},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clock := vclock.New()
			dev := tc.mk(clock)
			got, faults, orderErrs := runSingleRequestStream(dev, clock, 5000)
			c := dev.Counters()
			if faults == 0 {
				t.Fatal("stream injected no faults")
			}
			switch tc.name {
			case "ssd-intel":
				if c.GCRuns == 0 {
					t.Fatal("stream never pushed the page-mapped FTL into GC")
				}
			case "ssd-transcend":
				if c.PagesMoved == 0 {
					t.Fatal("stream never forced a block-mapped merge")
				}
			case "flash-chip":
				if orderErrs == 0 || c.Erases == 0 {
					t.Fatalf("stream hit %d program-order errors and %d erases, want both > 0", orderErrs, c.Erases)
				}
			}
			if got != tc.want {
				t.Fatalf("single-request I/O hash = %#x, want %#x (counters %+v, clock %v)", got, tc.want, c, clock.Now())
			}
		})
	}
}

// runSingleRequestStream drives n seeded single-request calls against dev
// and returns the FNV-64 hash of everything observable, the number of
// injected faults and the number of program-order errors.
func runSingleRequestStream(dev ioDevice, clock *vclock.Clock, n int) (sum uint64, faults, orderErrs int) {
	rng := rand.New(rand.NewSource(0x5eed10))
	h := fnv.New64a()
	var word [8]byte
	fold := func(v uint64) {
		binary.LittleEndian.PutUint64(word[:], v)
		h.Write(word[:])
	}
	foldResult := func(lat time.Duration, err error) {
		fold(uint64(lat))
		if err != nil {
			h.Write([]byte(err.Error()))
			if errors.Is(err, storage.ErrProgramOrder) {
				orderErrs++
			}
		}
		h.Write([]byte{0})
	}

	inject := false
	dev.SetFault(func(op storage.Op, off int64, n int) error {
		if inject {
			return fmt.Errorf("injected %v fault off=%d n=%d", op, off, n)
		}
		return nil
	})

	g := dev.Geometry()
	ps := int64(g.PageSize)
	pages := g.Capacity / ps
	eraser, _ := dev.(storage.Eraser)
	trimmer, _ := dev.(storage.Trimmer)
	var ppb int64 // pages per erase block on the chip
	var frontier []int64
	if eraser != nil {
		ppb = int64(g.BlockSize) / ps
		frontier = make([]int64, g.Capacity/int64(g.BlockSize))
	}
	buf := make([]byte, 17*ps)
	lastEnd := int64(0)

	// shape draws an offset and length: aligned single pages mostly, plus
	// the unaligned, zero-length, multi-page, sequential and out-of-range
	// corners.
	shape := func() (int64, int64) {
		switch rng.Intn(10) {
		case 0:
			return rng.Int63n(pages) * ps, 0
		case 1:
			return rng.Int63n(pages-2)*ps + rng.Int63n(ps), rng.Int63n(2*ps) + 1
		case 2:
			np := rng.Int63n(15) + 2
			return rng.Int63n(pages-np) * ps, np * ps
		case 3:
			if rng.Intn(2) == 0 {
				return -ps, ps
			}
			return g.Capacity - ps*rng.Int63n(2), 2 * ps
		case 4:
			if lastEnd+ps <= g.Capacity {
				return lastEnd, ps
			}
		}
		return rng.Int63n(pages) * ps, ps
	}

	for i := 0; i < n; i++ {
		inject = rng.Intn(50) == 0
		if inject {
			faults++
		}
		switch r := rng.Intn(100); {
		case r < 40: // read
			off, l := shape()
			p := buf[:max(l, 0)]
			lat, err := dev.ReadAt(p, off)
			foldResult(lat, err)
			if err == nil {
				h.Write(p)
				lastEnd = off + l
			}
		case r < 85: // write
			off, l := shape()
			if frontier != nil && rng.Intn(4) != 0 {
				// Mostly program at a block's frontier so the chip keeps
				// accepting writes; the rest violate program order.
				blk := rng.Int63n(int64(len(frontier)))
				left := ppb - frontier[blk]
				if left == 0 {
					lat, err := eraser.Erase(blk*int64(g.BlockSize), int64(g.BlockSize))
					foldResult(lat, err)
					if err == nil {
						frontier[blk] = 0
					}
					continue
				}
				off, l = (blk*ppb+frontier[blk])*ps, (rng.Int63n(min(left, 16))+1)*ps
			}
			p := buf[:max(l, 0)]
			for j := range p {
				p[j] = byte(i*31 + j)
			}
			lat, err := dev.WriteAt(p, off)
			foldResult(lat, err)
			if err == nil {
				lastEnd = off + l
				for pg := off / ps; frontier != nil && pg < (off+l)/ps; pg++ {
					frontier[pg/ppb] = pg%ppb + 1
				}
			}
		case r < 90: // idle gap
			clock.Advance(time.Duration(rng.Intn(400)) * time.Microsecond)
		case r < 95: // trim or erase
			switch {
			case trimmer != nil:
				np := rng.Int63n(8) + 1
				err := trimmer.Trim(rng.Int63n(pages-np)*ps, np*ps)
				foldResult(0, err)
			case eraser != nil:
				blk := rng.Int63n(int64(len(frontier)))
				lat, err := eraser.Erase(blk*int64(g.BlockSize), int64(g.BlockSize))
				foldResult(lat, err)
				if err == nil {
					frontier[blk] = 0
				}
			}
		default: // sequential read-back of the last write
			l := min(ps, g.Capacity-lastEnd)
			lat, err := dev.ReadAt(buf[:l], lastEnd)
			foldResult(lat, err)
			if err == nil {
				h.Write(buf[:l])
			}
		}
	}
	inject = false
	c := dev.Counters()
	for _, v := range []uint64{c.Reads, c.Writes, c.Erases, c.BytesRead, c.BytesWritten,
		c.PagesMoved, c.GCRuns, uint64(c.BusyTime), uint64(clock.Now())} {
		fold(v)
	}
	return h.Sum64(), faults, orderErrs
}

// TestBatchIOGolden is the multi-request twin of TestSingleRequestIOGolden.
// Each device model runs a seeded stream of 1500 ReadBatch/WriteBatch calls
// of 2–8 requests each:
//   - shuffled address-contiguous runs;
//   - scattered single- and multi-page writes;
//   - unaligned, zero-length and out-of-range reads;
//   - a fault injected on a random request of about one batch in 25;
//   - idle gaps, trims on the SSDs and erases on the chip;
//   - on the chip, batches whose first request, or a later one, breaks
//     program order.
//
// Every batch's latency, error text and read bytes, plus the final counters
// and clock, fold into one FNV-64 hash. So a change to the address sort,
// the run detection, the lane overlap, when GC runs or what a failed batch
// leaves behind shows up here. The SSD and disk constants were taken from
// the models' own batch code before they shared storage.Queue; the chip's
// moved once, when a batch breaking program order after its first request
// stopped leaving the earlier requests programmed.
func TestBatchIOGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func(*vclock.Clock) ioDevice
		want uint64
	}{
		{"ssd-intel", func(c *vclock.Clock) ioDevice { return ssd.New(ssd.IntelX18M(), 2<<20, c) }, 0xe35e7dc33d90b9e6},
		{"ssd-transcend", func(c *vclock.Clock) ioDevice { return ssd.New(ssd.TranscendTS32(), 2<<20, c) }, 0xf426e496c6fd50c9},
		{"flash-chip", func(c *vclock.Clock) ioDevice { return flashchip.New(flashchip.DefaultConfig(4<<20), c) }, 0x0557f3ca7e6f7bc3},
		{"disk", func(c *vclock.Clock) ioDevice { return disk.New(disk.Hitachi7K80(), 4<<20, c) }, 0x47062bbf9030c336},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clock := vclock.New()
			dev := tc.mk(clock)
			got, st := runBatchStream(dev, clock, 1500)
			c := dev.Counters()
			if st.faults == 0 || st.failed == 0 {
				t.Fatalf("stream injected %d faults and failed %d batches, want both > 0", st.faults, st.failed)
			}
			switch tc.name {
			case "ssd-intel":
				if c.GCRuns == 0 {
					t.Fatal("stream never pushed the page-mapped FTL into GC")
				}
			case "ssd-transcend":
				if c.PagesMoved == 0 {
					t.Fatal("stream never forced a block-mapped merge")
				}
			case "flash-chip":
				if st.lateOrderBreaks == 0 || c.Erases == 0 {
					t.Fatalf("stream built %d batches breaking program order after their first request and erased %d blocks, want both > 0",
						st.lateOrderBreaks, c.Erases)
				}
			}
			if got != tc.want {
				t.Fatalf("batch I/O hash = %#x, want %#x (counters %+v, clock %v)", got, tc.want, c, clock.Now())
			}
		})
	}
}

// batchStreamStats counts what a runBatchStream run exercised.
type batchStreamStats struct {
	faults          int // batches with an injected fault
	failed          int // batches that returned an error
	lateOrderBreaks int // chip write batches built to break program order after their first request
}

// runBatchStream drives n seeded batch calls against dev and returns the
// FNV-64 hash of everything observable.
func runBatchStream(dev ioDevice, clock *vclock.Clock, n int) (uint64, batchStreamStats) {
	var st batchStreamStats
	rng := rand.New(rand.NewSource(0xba7c4e5))
	h := fnv.New64a()
	var word [8]byte
	fold := func(v uint64) {
		binary.LittleEndian.PutUint64(word[:], v)
		h.Write(word[:])
	}
	foldResult := func(lat time.Duration, err error) {
		fold(uint64(lat))
		if err != nil {
			h.Write([]byte(err.Error()))
		}
		h.Write([]byte{0})
	}

	// failAt is the 1-based fault-hook call of the next batch that fails,
	// or 0 for none.
	failAt, calls := 0, 0
	dev.SetFault(func(op storage.Op, off int64, n int) error {
		if calls++; calls == failAt {
			return fmt.Errorf("injected %v fault off=%d n=%d", op, off, n)
		}
		return nil
	})

	g := dev.Geometry()
	ps := int64(g.PageSize)
	pages := g.Capacity / ps
	eraser, _ := dev.(storage.Eraser)
	trimmer, _ := dev.(storage.Trimmer)
	var ppb int64 // pages per erase block on the chip
	var frontier []int64
	if eraser != nil {
		ppb = int64(g.BlockSize) / ps
		frontier = make([]int64, g.Capacity/int64(g.BlockSize))
	}
	erase := func(blk int64) {
		lat, err := eraser.Erase(blk*int64(g.BlockSize), int64(g.BlockSize))
		foldResult(lat, err)
		if err == nil {
			frontier[blk] = 0
		}
	}
	pool := make([]byte, 64*ps)
	var reqs []storage.ReadReq
	used := int64(0)
	add := func(off, l int64) {
		reqs = append(reqs, storage.ReadReq{P: pool[used : used+l], Off: off})
		used += l
	}
	shuffle := func() {
		rng.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
	}
	// contiguous adds k address-contiguous requests of 1–3 pages (or, with
	// unaligned set, sometimes a partial page) and shuffles them.
	contiguous := func(k int, unaligned bool) {
		off := rng.Int63n(pages-int64(3*k)) * ps
		for j := 0; j < k; j++ {
			l := (rng.Int63n(3) + 1) * ps
			if unaligned && rng.Intn(4) == 0 {
				l = rng.Int63n(2*ps) + 1
			}
			add(off, l)
			off += l
		}
		shuffle()
	}

	for i := 0; i < n; i++ {
		k := rng.Intn(7) + 2
		fault := rng.Intn(25) == 0
		reqs, used = reqs[:0], 0
		var op storage.Op
		switch r := rng.Intn(100); {
		case r < 40:
			op = storage.OpRead
			if rng.Intn(3) == 0 {
				contiguous(k, true)
				break
			}
			for j := 0; j < k; j++ {
				switch rng.Intn(12) {
				case 0: // unaligned
					add(rng.Int63n(pages-2)*ps+rng.Int63n(ps), rng.Int63n(2*ps)+1)
				case 1:
					add(rng.Int63n(pages)*ps, 0)
				case 2:
					if rng.Intn(3) == 0 {
						add(g.Capacity-ps, 2*ps)
						break
					}
					fallthrough
				default:
					np := rng.Int63n(4) + 1
					add(rng.Int63n(pages-np)*ps, np*ps)
				}
			}
		case r < 85:
			op = storage.OpWrite
			if frontier != nil {
				// Runs at the frontiers of up to three distinct blocks,
				// each split into up to three contiguous requests.
				// Sometimes a block's second request skips a page, or its
				// first starts past the frontier: both break program order.
				late, early := rng.Intn(5) == 0, rng.Intn(10) == 0
				picked := map[int64]bool{}
				for b := rng.Intn(3) + 1; b > 0; b-- {
					blk := rng.Int63n(int64(len(frontier)))
					if picked[blk] {
						continue
					}
					picked[blk] = true
					if frontier[blk] == ppb {
						erase(blk)
						continue
					}
					pg := blk*ppb + frontier[blk]
					if early {
						pg, early = pg+1, false
					}
					left := blk*ppb + ppb - pg
					if left <= 0 {
						continue
					}
					run := rng.Int63n(min(left, 12)) + 1
					for parts := rng.Intn(3) + 1; run > 0 && parts > 0; parts-- {
						l := run
						if parts > 1 {
							l = rng.Int63n(run) + 1
						}
						add(pg*ps, l*ps)
						pg, run = pg+l, run-l
						if late && run > 0 {
							pg, late = pg+1, false
							st.lateOrderBreaks++
						}
					}
				}
				if len(reqs) == 0 {
					continue
				}
				shuffle()
			} else if rng.Intn(3) == 0 {
				contiguous(k, false)
			} else {
				// Scattered: request j lies in the j-th of k equal slices of
				// the device, so no two requests overlap.
				slice := pages / int64(k)
				for j := 0; j < k; j++ {
					np := rng.Int63n(4) + 1
					off := (int64(j)*slice + rng.Int63n(slice-np)) * ps
					switch rng.Intn(40) {
					case 0:
						off += rng.Int63n(ps-1) + 1
					case 1:
						off = g.Capacity - ps
					}
					add(off, np*ps)
				}
				shuffle()
			}
			for j := range pool[:used] {
				pool[j] = byte(i*31 + j)
			}
		case r < 92: // idle gap
			clock.Advance(time.Duration(rng.Intn(2000)) * time.Microsecond)
			continue
		default: // trim or erase
			switch {
			case trimmer != nil:
				np := rng.Int63n(8) + 1
				foldResult(0, trimmer.Trim(rng.Int63n(pages-np)*ps, np*ps))
			case eraser != nil:
				erase(rng.Int63n(int64(len(frontier))))
			}
			continue
		}

		calls, failAt = 0, 0
		if fault {
			failAt = rng.Intn(len(reqs)) + 1
			st.faults++
		}
		var lat time.Duration
		var err error
		if op == storage.OpRead {
			lat, err = dev.ReadBatch(reqs)
		} else {
			lat, err = dev.WriteBatch(reqs)
		}
		foldResult(lat, err)
		if err != nil {
			st.failed++
			continue
		}
		for _, r := range reqs {
			if op == storage.OpRead {
				h.Write(r.P)
			}
			for pg := r.Off / ps; op == storage.OpWrite && frontier != nil && pg < (r.Off+int64(len(r.P)))/ps; pg++ {
				frontier[pg/ppb] = pg%ppb + 1
			}
		}
	}
	failAt = 0
	c := dev.Counters()
	for _, v := range []uint64{c.Reads, c.Writes, c.Erases, c.BytesRead, c.BytesWritten,
		c.PagesMoved, c.GCRuns, uint64(c.BusyTime), uint64(clock.Now())} {
		fold(v)
	}
	return h.Sum64(), st
}

// TestSingleRequestIOAllocs pins the heap allocations of one ReadAt and
// one WriteAt on every device model, over pages the sparse store already
// holds: none.
func TestSingleRequestIOAllocs(t *testing.T) {
	for _, tc := range []struct {
		name string
		dev  storage.Device
	}{
		{"ssd-intel", ssd.New(ssd.IntelX18M(), 4<<20, vclock.New())},
		{"ssd-transcend", ssd.New(ssd.TranscendTS32(), 4<<20, vclock.New())},
		{"flash-chip", flashchip.New(flashchip.DefaultConfig(4<<20), vclock.New())},
		{"disk", disk.New(disk.Hitachi7K80(), 4<<20, vclock.New())},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.dev.Geometry()
			ps := int64(g.PageSize)
			page := make([]byte, ps)
			// Touch every erase block (every 128 KiB on the disk) so the
			// sparse store's chunks exist before counting; the chip's
			// writes then program each block's later pages in order.
			bs := int64(max(g.BlockSize, 128<<10))
			for off := int64(0); off < g.Capacity; off += bs {
				if _, err := tc.dev.WriteAt(page, off); err != nil {
					t.Fatal(err)
				}
			}
			if n := testing.AllocsPerRun(100, func() {
				if _, err := tc.dev.ReadAt(page, ps); err != nil {
					t.Fatal(err)
				}
			}); n != 0 {
				t.Errorf("ReadAt allocates %v times, want 0", n)
			}
			next := int64(0)
			if n := testing.AllocsPerRun(100, func() {
				next += ps
				if next%bs == 0 {
					next += ps
				}
				if _, err := tc.dev.WriteAt(page, next); err != nil {
					t.Fatal(err)
				}
			}); n != 0 {
				t.Errorf("WriteAt allocates %v times, want 0", n)
			}
		})
	}
}
