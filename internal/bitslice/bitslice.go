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
//     clears the bitmap and advances start. It first builds a table on
//     its stack (at most 256 words) of every value one row word's 64/lane
//     staging bits can take, each already spread to bit start of its
//     lanes. The pass then expands each staging byte into its lane/8 row
//     words with constant shifts: one table lookup and an and-not/or per
//     row word, m/(64/lane) of them per flush. The table is rebuilt on
//     every call, so MemoryBits still counts all the bank holds.
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

// AddStaging adds a pre-hashed key to the staging (buffer) filter. A zero
// key is skipped, as in AddStagingKeys.
func (b *Bank) AddStaging(keyHash uint64) {
	keys := [1]uint64{keyHash}
	b.AddStagingKeys(keys[:])
}

// AddStagingKeys adds every non-zero key of keys to the staging filter.
// Zero keys are skipped, so a cuckoo table's slot array, whose empty slots
// hold zero, can be passed as it is. The probes are hashutil.Reduce's,
// with its power-of-two test taken once per call rather than per probe.
func (b *Bank) AddStagingKeys(keys []uint64) {
	staging, m, h := b.staging, b.m, b.h
	if m&(m-1) == 0 {
		mask := m - 1
		for _, kh := range keys {
			if kh == 0 {
				continue
			}
			h1, h2 := kh, hashutil.Mix64(kh)|1
			for i := 0; i < h; i++ {
				p := h1 & mask
				staging[p>>6] |= 1 << (p & 63)
				h1 += h2
			}
		}
		return
	}
	// This loop runs at every shipped geometry (m = 196608, h = 33), where
	// four probes per pass measured about a quarter faster than one.
	for _, kh := range keys {
		if kh == 0 {
			continue
		}
		h1, h2 := kh, hashutil.Mix64(kh)|1
		i := h
		for ; i >= 4; i -= 4 {
			p0 := hashutil.FastRange64(h1, m)
			p1 := hashutil.FastRange64(h1+h2, m)
			p2 := hashutil.FastRange64(h1+2*h2, m)
			p3 := hashutil.FastRange64(h1+3*h2, m)
			staging[p0>>6] |= 1 << (p0 & 63)
			staging[p1>>6] |= 1 << (p1 & 63)
			staging[p2>>6] |= 1 << (p2 & 63)
			staging[p3>>6] |= 1 << (p3 & 63)
			h1 += 4 * h2
		}
		for ; i > 0; i-- {
			p := hashutil.FastRange64(h1, m)
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
	// col[x] is x's bit i moved to bit start of lane i, for x below 1<<per:
	// the new column of a row word whose per staging bits read x.
	var col [256]uint64
	per := 1 << b.perLog // lanes (rows) per row word
	for i := range per {
		bit := uint64(1) << (i<<b.laneLog + b.start)
		for x := range 1 << i {
			col[1<<i|x] = col[x] | bit
		}
	}
	keep := ^col[1<<per-1] // every bit but bit start of each lane
	// Staging word i fills row words lane·i to lane·i+lane-1; only the
	// last staging word can fill fewer.
	rows, staging := b.rows, b.staging
	full := len(rows) >> b.laneLog
	switch b.laneLog {
	case 3:
		transpose8(rows, staging[:full], &col, keep)
	case 4:
		transpose16(rows, staging[:full], &col, keep)
	case 5:
		transpose32(rows, staging[:full], &col, keep)
	default:
		transpose64(rows, staging[:full], &col, keep)
	}
	if tail := rows[full<<b.laneLog:]; len(tail) > 0 {
		sw := staging[full]
		for j := range tail {
			tail[j] = tail[j]&keep | col[sw&uint64(1<<per-1)]
			sw >>= per
		}
	}
	clear(b.staging)
	if b.start++; b.start == b.k {
		b.start = 0
	}
}

// The transpose kernels write whole staging words into the rows of a bank
// with 8-, 16-, 32- or 64-bit lanes, as Rotate does: staging word i fills
// row words lane·i to lane·i+lane-1, each from its 64/lane staging bits.
// One staging byte feeds lane/8 row words, each taken from the byte with
// constant shifts and looked up in col.

func transpose8(rows, staging []uint64, col *[256]uint64, keep uint64) {
	for i, sw := range staging {
		r := (*[8]uint64)(rows[8*i:])
		for j := range r {
			r[j] = r[j]&keep | col[uint8(sw)]
			sw >>= 8
		}
	}
}

func transpose16(rows, staging []uint64, col *[256]uint64, keep uint64) {
	for i, sw := range staging {
		r := (*[16]uint64)(rows[16*i:])
		for j := 0; j < 16; j += 2 {
			r[j] = r[j]&keep | col[sw&15]
			r[j+1] = r[j+1]&keep | col[sw>>4&15]
			sw >>= 8
		}
	}
}

func transpose32(rows, staging []uint64, col *[256]uint64, keep uint64) {
	for i, sw := range staging {
		r := (*[32]uint64)(rows[32*i:])
		for j := 0; j < 32; j += 4 {
			r[j] = r[j]&keep | col[sw&3]
			r[j+1] = r[j+1]&keep | col[sw>>2&3]
			r[j+2] = r[j+2]&keep | col[sw>>4&3]
			r[j+3] = r[j+3]&keep | col[sw>>6&3]
			sw >>= 8
		}
	}
}

func transpose64(rows, staging []uint64, col *[256]uint64, keep uint64) {
	for i, sw := range staging {
		r := (*[64]uint64)(rows[64*i:])
		for j := 0; j < 64; j += 8 {
			r[j] = r[j]&keep | col[sw&1]
			r[j+1] = r[j+1]&keep | col[sw>>1&1]
			r[j+2] = r[j+2]&keep | col[sw>>2&1]
			r[j+3] = r[j+3]&keep | col[sw>>3&1]
			r[j+4] = r[j+4]&keep | col[sw>>4&1]
			r[j+5] = r[j+5]&keep | col[sw>>5&1]
			r[j+6] = r[j+6]&keep | col[sw>>6&1]
			r[j+7] = r[j+7]&keep | col[sw>>7&1]
			sw >>= 8
		}
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
