package storage

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"testing"
)

// refStore is the reference SparseStore: one map entry per written page,
// refilled or deleted by Drop exactly as the contract states.
type refStore struct {
	pageSize int
	fill     byte
	pages    map[int64][]byte
}

// segments calls fn for each page-sized piece of [off, off+n): the page
// index, the byte range within the page, and the piece's position in the
// caller's buffer.
func (r *refStore) segments(off, n int64, fn func(idx, lo, hi, at int64)) {
	ps := int64(r.pageSize)
	for at := int64(0); at < n; {
		idx, lo := (off+at)/ps, (off+at)%ps
		hi := min(ps, lo+n-at)
		fn(idx, lo, hi, at)
		at += hi - lo
	}
}

func (r *refStore) readAt(p []byte, off int64) {
	r.segments(off, int64(len(p)), func(idx, lo, hi, at int64) {
		if page, ok := r.pages[idx]; ok {
			copy(p[at:], page[lo:hi])
		} else {
			copy(p[at:at+hi-lo], bytes.Repeat([]byte{r.fill}, int(hi-lo)))
		}
	})
}

func (r *refStore) writeAt(p []byte, off int64) {
	r.segments(off, int64(len(p)), func(idx, lo, hi, at int64) {
		page, ok := r.pages[idx]
		if !ok {
			page = bytes.Repeat([]byte{r.fill}, r.pageSize)
			r.pages[idx] = page
		}
		copy(page[lo:hi], p[at:])
	})
}

func (r *refStore) drop(off, n int64) {
	r.segments(off, n, func(idx, lo, hi, _ int64) {
		if lo == 0 && hi == int64(r.pageSize) {
			delete(r.pages, idx)
		} else if page, ok := r.pages[idx]; ok {
			copy(page[lo:hi], bytes.Repeat([]byte{r.fill}, int(hi-lo)))
		}
	})
}

// TestSparseStoreMatchesReference drives the chunked store and the map
// reference with the same seeded writes, reads and whole and partial
// drops. Offsets cluster where chunked storage has edges: page and chunk
// boundaries (straddled from both sides), directory-group boundaries, and
// the end of a notional 32 GiB device.
func TestSparseStoreMatchesReference(t *testing.T) {
	const capacity = 32 << 30
	for _, fill := range []byte{0x00, 0xFF} {
		for _, ps := range []int{512, 2048, 4096} {
			t.Run(fmt.Sprintf("fill=%#x/page=%d", fill, ps), func(t *testing.T) {
				rng := rand.New(rand.NewPCG(uint64(ps), uint64(fill)))
				s := NewSparseStore(ps, fill)
				ref := &refStore{pageSize: ps, fill: fill, pages: map[int64][]byte{}}
				chunk := int64(chunkPages * ps)
				group := chunk * groupChunks
				anchors := []int64{0, chunk, 3 * chunk, group, group + 5*chunk, capacity - chunk, capacity}
				// pick returns an offset within two chunks of an anchor
				// and a length of up to three chunks, kept in [0, capacity).
				pick := func() (int64, int64) {
					a := anchors[rng.IntN(len(anchors))]
					off := a + rng.Int64N(4*chunk) - 2*chunk
					switch rng.IntN(3) {
					case 0: // page-aligned
						off -= off % int64(ps)
					case 1: // one byte off a page boundary
						off -= off%int64(ps) + 1
					}
					n := 1 + rng.Int64N(3*chunk)
					if rng.IntN(2) == 0 {
						n = 1 + rng.Int64N(int64(ps)) // within a page or two
					}
					off = min(max(off, 0), capacity-1)
					return off, min(n, capacity-off)
				}
				for step := 0; step < 600; step++ {
					off, n := pick()
					switch op := rng.IntN(10); {
					case op < 5:
						p := make([]byte, n)
						for i := range p {
							p[i] = byte(step + i*7) // never a whole page of fill
						}
						s.WriteAt(p, off)
						ref.writeAt(p, off)
					case op < 8:
						if op == 7 { // whole pages
							off -= off % int64(ps)
							n = (n + int64(ps) - 1) / int64(ps) * int64(ps)
							n = min(n, capacity-off)
						}
						s.Drop(off, n)
						ref.drop(off, n)
					default:
						got, want := make([]byte, n), make([]byte, n)
						s.ReadAt(got, off)
						ref.readAt(want, off)
						if !bytes.Equal(got, want) {
							t.Fatalf("step %d: ReadAt(%d, %d) differs from the reference", step, off, n)
						}
					}
					if got, want := s.PagesAllocated(), len(ref.pages); got != want {
						t.Fatalf("step %d: PagesAllocated = %d, reference %d", step, got, want)
					}
				}
				// Every page either store holds reads back identically.
				buf, want := make([]byte, ps), make([]byte, ps)
				for idx := range ref.pages {
					s.ReadAt(buf, idx*int64(ps))
					ref.readAt(want, idx*int64(ps))
					if !bytes.Equal(buf, want) {
						t.Fatalf("page %d differs from the reference", idx)
					}
				}
				// Dropping everything frees every chunk.
				s.Drop(0, capacity)
				if s.PagesAllocated() != 0 || s.chunks() != 0 {
					t.Fatalf("after dropping everything: %d pages, %d chunks", s.PagesAllocated(), s.chunks())
				}
			})
		}
	}
}

// chunks counts the allocated chunks.
func (s *SparseStore) chunks() int {
	n := 0
	for _, g := range s.dir {
		if g == nil {
			continue
		}
		for _, c := range g {
			if c != nil {
				n++
			}
		}
	}
	return n
}

// TestSparseStoreScatteredWritesStaySmall writes single pages far apart on
// a notional 32 GiB device: each write allocates at most one chunk (and
// one directory group), and the directory stays a few KiB.
func TestSparseStoreScatteredWritesStaySmall(t *testing.T) {
	const capacity = 32 << 30
	for _, ps := range []int{512, 4096} {
		s := NewSparseStore(ps, 0)
		rng := rand.New(rand.NewPCG(7, uint64(ps)))
		page := make([]byte, ps)
		groups := 0
		for i := 0; i < 200; i++ {
			before := s.chunks()
			off := rng.Int64N(capacity/int64(ps)) * int64(ps)
			s.WriteAt(page, off)
			if grown := s.chunks() - before; grown > 1 {
				t.Fatalf("page %d: one-page write allocated %d chunks", ps, grown)
			}
		}
		for _, g := range s.dir {
			if g != nil {
				groups++
			}
		}
		if s.chunks() > 200 || groups > 200 {
			t.Fatalf("page %d: %d chunks, %d groups for 200 writes", ps, s.chunks(), groups)
		}
		if dirBytes := len(s.dir) * 8; dirBytes > 16<<10 {
			t.Fatalf("page %d: top-level directory %d bytes", ps, dirBytes)
		}
		if s.PagesAllocated() > 200 {
			t.Fatalf("page %d: PagesAllocated = %d after 200 one-page writes", ps, s.PagesAllocated())
		}
	}
}

// BenchmarkSparseStoreWrite measures the device data path with 4 KiB
// page writes cycling over a 16 MiB region: "overwrite" rewrites pages
// already stored, "first-touch" starts a new store every pass, so each
// write lands on a page not yet stored. Run with -benchmem.
func BenchmarkSparseStoreWrite(b *testing.B) {
	const ps, region = 4096, 16 << 20
	page := make([]byte, ps)
	for _, fresh := range []bool{false, true} {
		name := "overwrite"
		if fresh {
			name = "first-touch"
		}
		b.Run(name, func(b *testing.B) {
			s := NewSparseStore(ps, 0)
			b.SetBytes(ps)
			b.ReportAllocs()
			for i := 0; b.Loop(); i++ {
				at := i % (region / ps)
				if fresh && at == 0 {
					s = NewSparseStore(ps, 0)
				}
				s.WriteAt(page, int64(at)*ps)
			}
		})
	}
}
