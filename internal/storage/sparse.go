package storage

import "math/bits"

const (
	// chunkPages is the allocation unit of a SparseStore, in pages: one
	// bit of a chunk's present bitmap per page.
	chunkPages = 64
	// groupChunks is the number of chunk slots in one directory group.
	groupChunks = 512
)

// chunk holds chunkPages consecutive pages. Bit i of present is set while
// page i holds written bytes. Every byte of a page that is not present
// equals the store's fill byte, so reads and writes are plain copies.
type chunk struct {
	present uint64
	data    []byte // chunkPages·pageSize bytes
}

// dirGroup is one directory group: the chunks of groupChunks consecutive
// chunk-sized spans, nil where nothing is stored.
type dirGroup [groupChunks]*chunk

// SparseStore is a page-granular sparse byte store. Unwritten regions read
// as the fill byte (0x00 for disks, 0xFF for erased NAND). It is the data
// backing for all device models, letting a simulated "32 GB" device cost
// only as much host memory as the chunks actually touched (see the package
// doc). Not safe for concurrent use.
type SparseStore struct {
	pageSize  int
	chunkSize int64 // chunkPages·pageSize bytes
	fill      byte
	dir       []*dirGroup // groups allocated on first write
	pages     int         // present pages across all chunks
}

// NewSparseStore returns a store with the given page size and fill byte.
func NewSparseStore(pageSize int, fill byte) *SparseStore {
	return &SparseStore{pageSize: pageSize, chunkSize: chunkPages * int64(pageSize), fill: fill}
}

// lookup returns chunk ci, or nil when it holds no page.
func (s *SparseStore) lookup(ci int64) *chunk {
	g := ci / groupChunks
	if g >= int64(len(s.dir)) || s.dir[g] == nil {
		return nil
	}
	return s.dir[g][ci%groupChunks]
}

// alloc returns chunk ci, allocating it and its directory group on first
// use. A new chunk's pages are all absent, so its bytes start as the fill.
func (s *SparseStore) alloc(ci int64) *chunk {
	g := ci / groupChunks
	if g >= int64(len(s.dir)) {
		s.dir = append(s.dir, make([]*dirGroup, g+1-int64(len(s.dir)))...)
	}
	grp := s.dir[g]
	if grp == nil {
		grp = new(dirGroup)
		s.dir[g] = grp
	}
	c := grp[ci%groupChunks]
	if c == nil {
		c = &chunk{data: make([]byte, s.chunkSize)}
		if s.fill != 0 {
			fillBytes(c.data, s.fill)
		}
		grp[ci%groupChunks] = c
	}
	return c
}

// pageMask returns the present bits of pages first..last of a chunk.
func pageMask(first, last int64) uint64 {
	return ^uint64(0) >> (63 - (last - first)) << first
}

// ReadAt fills p from the store at off.
func (s *SparseStore) ReadAt(p []byte, off int64) {
	for len(p) > 0 {
		at := off % s.chunkSize
		n := min(int64(len(p)), s.chunkSize-at)
		if c := s.lookup(off / s.chunkSize); c != nil {
			copy(p[:n], c.data[at:])
		} else {
			fillBytes(p[:n], s.fill)
		}
		p = p[n:]
		off += n
	}
}

// WriteAt stores p at off, allocating chunks as needed.
func (s *SparseStore) WriteAt(p []byte, off int64) {
	ps := int64(s.pageSize)
	for len(p) > 0 {
		at := off % s.chunkSize
		n := min(int64(len(p)), s.chunkSize-at)
		c := s.alloc(off / s.chunkSize)
		copy(c.data[at:], p[:n])
		mask := pageMask(at/ps, (at+n-1)/ps)
		s.pages += bits.OnesCount64(mask &^ c.present)
		c.present |= mask
		p = p[n:]
		off += n
	}
}

// Drop releases the pages fully covered by [off, off+n) and refills partial
// overlaps with the fill byte. A chunk left without pages is freed.
func (s *SparseStore) Drop(off, n int64) {
	ps := int64(s.pageSize)
	for end := off + n; off < end; {
		ci, at := off/s.chunkSize, off%s.chunkSize
		hi := min(end-ci*s.chunkSize, s.chunkSize) // chunk-relative end
		off = (ci + 1) * s.chunkSize
		c := s.lookup(ci)
		if c == nil {
			continue
		}
		present := c.present
		if first, last := (at+ps-1)/ps, hi/ps-1; first <= last {
			present &^= pageMask(first, last)
		}
		s.pages -= bits.OnesCount64(c.present &^ present)
		c.present = present
		if present == 0 {
			s.dir[ci/groupChunks][ci%groupChunks] = nil
			continue
		}
		fillBytes(c.data[at:hi], s.fill)
	}
}

// PagesAllocated returns the number of live pages (for memory accounting in
// tests): pages written and not since dropped whole.
func (s *SparseStore) PagesAllocated() int { return s.pages }

// fillBytes sets every byte of p to v.
func fillBytes(p []byte, v byte) {
	if v == 0 {
		clear(p)
		return
	}
	if len(p) == 0 {
		return
	}
	p[0] = v
	for n := 1; n < len(p); n *= 2 {
		copy(p[n:], p[:n])
	}
}
