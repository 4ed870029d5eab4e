// Package u64set implements an open-addressing set of uint64 keys with
// deletion support, built for the stream layer's per-shard dedup sets: the
// edges appended since the last snapshot capture, which the next capture
// reads back as its inserts, and the edges removed from below it.
//
// The previous implementation was a map[uint64]struct{} per shard — Go's
// generic map spends ~48 bytes per resident entry (bucket headers, tophash
// bytes, overflow pointers) and cannot release buckets on delete. Edge
// expiry needs deletion anyway (a retired edge must become re-ingestable),
// so the set is a flat power-of-two table of raw keys probed linearly with
// a Fibonacci-scrambled hash: 8 bytes per slot at ≤ 7/8 load, deletions via
// backward-shift compaction (no tombstones, so churn never degrades probe
// lengths), and the whole structure is two allocations regardless of size.
package u64set

import "iter"

// emptySlot marks a free table slot. Key 0 itself is legal — it is tracked
// out of band by hasZero — so the sentinel never collides with user data.
const emptySlot = 0

// minCapacity is the smallest table allocated once the set holds anything.
const minCapacity = 16

// maxLoadNum/maxLoadDen set the resize threshold: grow when occupied slots
// exceed 7/8 of the table. Linear probing stays short well past 3/4; 7/8
// trades a little probe length for per-edge memory, which is what this
// package exists to shrink.
const (
	maxLoadNum = 7
	maxLoadDen = 8
)

// Set is an open-addressing set of uint64 keys. The zero value is an empty
// set ready for use. Not safe for concurrent use; the stream layer guards
// each shard's set with the shard lock.
type Set struct {
	slots   []uint64 // power-of-two table; emptySlot marks a free slot
	n       int      // occupied slots (excludes the zero key)
	hasZero bool
}

// hash scrambles k into a table index. Fibonacci multiply then an xor-fold
// of the high half into the low half, so every input bit reaches the masked
// low bits — the stream's edge keys (user<<32|merchant) are sequential-ish
// on both halves and would cluster under a plain multiplicative low mask.
func hash(k uint64, mask uint64) uint64 {
	h := k * 0x9E3779B97F4A7C15
	return (h ^ h>>32) & mask
}

// tableFor returns the power-of-two table size that keeps n keys under the
// load limit.
func tableFor(n int) int {
	c := minCapacity
	for c*maxLoadNum < n*maxLoadDen {
		c <<= 1
	}
	return c
}

// Add inserts k, reporting whether it was newly added (false = already
// present, the dedup signal).
func (s *Set) Add(k uint64) bool {
	if k == emptySlot {
		if s.hasZero {
			return false
		}
		s.hasZero = true
		return true
	}
	if (s.n+1)*maxLoadDen > len(s.slots)*maxLoadNum {
		s.grow(tableFor(s.n + 1))
	}
	mask := uint64(len(s.slots) - 1)
	for i := hash(k, mask); ; i = (i + 1) & mask {
		switch s.slots[i] {
		case k:
			return false
		case emptySlot:
			s.slots[i] = k
			s.n++
			return true
		}
	}
}

// Len returns the number of keys in the set.
func (s *Set) Len() int {
	if s.hasZero {
		return s.n + 1
	}
	return s.n
}

// Keys yields every key in the set once: the zero key first, then the table
// in slot order. The order follows the set's history, not the keys alone, so
// a caller that needs a canonical order sorts. The set must not change while
// the sequence runs.
func (s *Set) Keys() iter.Seq[uint64] {
	return func(yield func(uint64) bool) {
		if s.hasZero && !yield(0) {
			return
		}
		for _, k := range s.slots {
			if k != emptySlot && !yield(k) {
				return
			}
		}
	}
}

// Has reports whether k is in the set.
func (s *Set) Has(k uint64) bool {
	if k == emptySlot {
		return s.hasZero
	}
	if len(s.slots) == 0 {
		return false
	}
	mask := uint64(len(s.slots) - 1)
	for i := hash(k, mask); ; i = (i + 1) & mask {
		switch s.slots[i] {
		case k:
			return true
		case emptySlot:
			return false
		}
	}
}

// Delete removes k, reporting whether it was present. Removal compacts the
// probe cluster in place (backward shift), so the table never accumulates
// tombstones under ingest/expiry churn.
func (s *Set) Delete(k uint64) bool {
	if k == emptySlot {
		if !s.hasZero {
			return false
		}
		s.hasZero = false
		return true
	}
	if len(s.slots) == 0 {
		return false
	}
	mask := uint64(len(s.slots) - 1)
	i := hash(k, mask)
	for s.slots[i] != k {
		if s.slots[i] == emptySlot {
			return false
		}
		i = (i + 1) & mask
	}
	s.n--
	// Backward-shift deletion (Knuth 6.4 algorithm R): walk the cluster past
	// i; any key whose home position does not lie in the (cyclic) gap
	// (hole, j] can — and must — fill the hole, or later lookups that probe
	// through the hole would miss it.
	hole := i
	for j := (i + 1) & mask; s.slots[j] != emptySlot; j = (j + 1) & mask {
		home := hash(s.slots[j], mask)
		// "home is cyclically within (hole, j]" ⇔ the key must stay after
		// the hole; otherwise it probed through the hole's position.
		if cyclicBetween(hole, home, j) {
			continue
		}
		s.slots[hole] = s.slots[j]
		hole = j
	}
	s.slots[hole] = emptySlot
	return true
}

// cyclicBetween reports whether lo < x ≤ hi on the ring of table indices.
func cyclicBetween(lo, x, hi uint64) bool {
	if lo <= hi {
		return lo < x && x <= hi
	}
	return lo < x || x <= hi
}

// grow rehashes into a table of newSize slots (a power of two ≥ current).
func (s *Set) grow(newSize int) {
	old := s.slots
	s.slots = make([]uint64, newSize)
	mask := uint64(newSize - 1)
	for _, k := range old {
		if k == emptySlot {
			continue
		}
		i := hash(k, mask)
		for s.slots[i] != emptySlot {
			i = (i + 1) & mask
		}
		s.slots[i] = k
	}
}
