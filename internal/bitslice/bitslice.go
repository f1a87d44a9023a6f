// Package bitslice implements the bit-sliced Bloom filter bank of §5.1.3 of
// the paper.
//
// A super table holds k incarnations plus the in-memory buffer, each with a
// Bloom filter of m bits. Instead of storing k separate incarnation filters,
// the bank stores m *rows*: row p holds bit p of every incarnation filter. A
// lookup that probes h bit positions then retrieves h rows, ANDs them, and
// the 1-bits of the result identify the incarnations that may contain the
// key — h word operations instead of k·h bit probes.
//
// Layout:
//
//   - Rows. Each row is a ring of exactly k bits, held in a lane of the
//     narrowest width (8, 16, 32 or 64 bits) that fits k; 64/lane rows are
//     packed per uint64, so the bank costs lane·m bits (k·m at k = 8, 16,
//     32 or 64). start names the ring position of the oldest incarnation;
//     ring position (start+j) mod k holds window offset j (0 = oldest …
//     k-1 = newest). Query ANDs the h lanes and ring-rotates the result
//     once by start to return window offsets.
//   - Staging. The buffer's filter is a separate m-bit bitmap (m/8 bytes);
//     AddStaging, AddStagingKeys and QueryStaging touch only it. It need
//     not be current after every insert: only Rotate and QueryStaging read
//     it, and setting bits is a set union. So a super table ORs its
//     buffered keys in with one AddStagingKeys pass just before either
//     read, while the bitmap stays cache-resident, and gets the bits an
//     AddStaging per insert would have set.
//   - Rotate. One sequential pass writes staging bit p into bit start of
//     row p, overwriting the evicted oldest incarnation's column, then
//     clears the bitmap and advances start. That is m/(64/lane) word
//     updates per flush.
//
// A key's h probe positions are hashutil.DoubleHash's, generated in place
// so that a query stops hashing at its first empty probe.
//
// What this keeps from §5.1.3: one word operation per hash function on a
// query, and a sliding start instead of shifting rows on eviction. What it
// changes: the staging filter lives outside the rows and is filled from
// the buffer's keys when they are about to be read, so a key sets h bits
// of a small bitmap once, in a batched pass, instead of writing h random
// rows on insert; and eviction is folded into the one transpose pass at
// Rotate instead of the paper's lazy word-at-a-time clearing of a padded
// window, so no row carries padding beyond its lane.
package bitslice

import (
	"fmt"
	"math/bits"

	"repro/internal/hashutil"
)

// spread[w][x] places bit i of x at bit i·lane of a word, for lane width
// 8<<w and x below 1<<(64/lane): the staging bits of one row word's lanes,
// ready to shift into the ring position being overwritten.
var spread = func() (t [4][256]uint64) {
	for w := range t {
		lane := 8 << w
		for x := 0; x < 1<<(64/lane); x++ {
			for i := 0; i < 64/lane; i++ {
				if x>>i&1 != 0 {
					t[w][x] |= 1 << (i * lane)
				}
			}
		}
	}
	return t
}()

// Bank is a bit-sliced bank of k incarnation Bloom filters plus one staging
// (buffer) filter. Query only reads it and may run concurrently with
// other Query calls; every other call needs exclusive access.
type Bank struct {
	k       int    // incarnations per super table (ring length)
	h       int    // hash functions per filter
	m       uint64 // bits per filter (number of rows)
	laneLog uint   // log2 of the lane width in bits (3..6)
	perLog  uint   // log2 of the lanes per row word (6 - laneLog)
	kMask   uint64 // low k bits
	rows    []uint64
	staging []uint64 // m-bit staging filter
	start   int      // ring position of the oldest incarnation
}

// NewBank creates a bank for k incarnations with m-bit filters and h hash
// functions. k must be in [1, 64].
func NewBank(m uint64, k, h int) *Bank {
	if k < 1 || k > 64 {
		panic(fmt.Sprintf("bitslice: k=%d out of range [1,64]", k))
	}
	if m == 0 || h < 1 {
		panic("bitslice: non-positive filter parameters")
	}
	laneLog := uint(bits.TrailingZeros(uint(LaneBits(k))))
	perLog := 6 - laneLog
	return &Bank{
		k:       k,
		h:       h,
		m:       m,
		laneLog: laneLog,
		perLog:  perLog,
		kMask:   ^uint64(0) >> (64 - k),
		rows:    make([]uint64, (m+1<<perLog-1)>>perLog),
		staging: make([]uint64, (m+63)/64),
	}
}

// LaneBits returns the width of the lane that holds one row of a bank for
// k incarnations: the narrowest of 8, 16, 32 and 64 bits that fits k. The
// rows of an m-bit bank cost LaneBits(k)·m bits.
func LaneBits(k int) int { return 1 << max(3, bits.Len(uint(k-1))) }

// K returns the number of incarnation columns.
func (b *Bank) K() int { return b.k }

// Hashes returns the number of hash functions per filter.
func (b *Bank) Hashes() int { return b.h }

// FilterBits returns m, the number of bits per filter.
func (b *Bank) FilterBits() uint64 { return b.m }

// MemoryBits returns the bits the bank allocates: the row words plus the
// staging bitmap.
func (b *Bank) MemoryBits() uint64 { return uint64(len(b.rows)+len(b.staging)) * 64 }

// AddStaging adds a pre-hashed key to the staging (buffer) filter.
func (b *Bank) AddStaging(keyHash uint64) {
	h1, h2 := keyHash, hashutil.Mix64(keyHash)|1
	for i := 0; i < b.h; i++ {
		p := hashutil.Reduce(h1, b.m)
		b.staging[p>>6] |= 1 << (p & 63)
		h1 += h2
	}
}

// AddStagingKeys adds every non-zero key of keys to the staging filter:
// the bits of a loop of AddStaging over them. Zero keys are skipped, so a
// cuckoo table's slot array, whose empty slots hold zero, can be passed
// as it is.
func (b *Bank) AddStagingKeys(keys []uint64) {
	staging, m, h := b.staging, b.m, b.h
	for _, kh := range keys {
		if kh == 0 {
			continue
		}
		h1, h2 := kh, hashutil.Mix64(kh)|1
		for i := 0; i < h; i++ {
			p := hashutil.Reduce(h1, m)
			staging[p>>6] |= 1 << (p & 63)
			h1 += h2
		}
	}
}

// QueryStaging reports whether the staging filter may contain the key.
func (b *Bank) QueryStaging(keyHash uint64) bool {
	h1, h2 := keyHash, hashutil.Mix64(keyHash)|1
	for i := 0; i < b.h; i++ {
		p := hashutil.Reduce(h1, b.m)
		if b.staging[p>>6]&(1<<(p&63)) == 0 {
			return false
		}
		h1 += h2
	}
	return true
}

// Query returns a bitmask over the k incarnation columns: bit j set means
// the incarnation at window offset j (0 = oldest position, k-1 = newest)
// may contain the key. Columns that currently hold no incarnation are
// all-zero and thus never match.
func (b *Bank) Query(keyHash uint64) uint64 {
	laneIdx := uint64(1)<<b.perLog - 1
	v := b.kMask
	h1, h2 := keyHash, hashutil.Mix64(keyHash)|1
	for i := 0; i < b.h; i++ {
		p := hashutil.Reduce(h1, b.m)
		v &= b.rows[p>>b.perLog] >> ((p & laneIdx) << b.laneLog)
		if v == 0 {
			return 0
		}
		h1 += h2
	}
	// Ring position start+j holds window offset j.
	return (v>>b.start | v<<(b.k-b.start)) & b.kMask
}

// Rotate makes the staging filter the newest incarnation column, in place
// of the oldest, and starts a fresh empty staging filter.
func (b *Bank) Rotate() {
	sp := &spread[b.laneLog-3]
	start := b.start
	per := uint(1) << b.perLog          // lanes (rows) per row word
	laneBits := uint8(uint(1)<<per - 1) // staging bits of one row word
	col := sp[laneBits] << start        // bit start of every lane
	chunk := 64 >> b.perLog             // row words per staging word
	rows := b.rows
	for _, sw := range b.staging {
		n := min(len(rows), chunk)
		for w := range rows[:n] {
			rows[w] = rows[w]&^col | sp[uint8(sw)&laneBits]<<start
			sw >>= per
		}
		rows = rows[n:]
	}
	clear(b.staging)
	if b.start++; b.start == b.k {
		b.start = 0
	}
}

// MatchOffsets appends the window offsets of the set bits in mask to dst
// (ascending, i.e. oldest first), using the precomputed-table technique the
// paper describes (here: hardware ctz).
func MatchOffsets(mask uint64, dst []int) []int {
	for mask != 0 {
		j := bits.TrailingZeros64(mask)
		dst = append(dst, j)
		mask &= mask - 1
	}
	return dst
}
