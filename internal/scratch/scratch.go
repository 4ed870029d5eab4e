// Package scratch provides the tiny allocation-reuse primitives shared by
// the ensemble hot path: grow-in-place buffers and epoch-stamped membership
// sets whose reset is a generation bump instead of an O(n) clear.
//
// The ensemble runs the sample→subgraph→peel pipeline thousands of times per
// detection; profiles showed the dominant avoidable cost was re-allocating
// (and re-filling) parent-sized tables per sample. Everything here exists so
// a per-worker arena can hold those tables once and recycle them.
package scratch

// Grow returns *buf resized to length n, reusing the backing array whenever
// capacity allows. Element contents are unspecified — callers must overwrite
// every index they read.
func Grow[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// GrowZero returns *buf resized to length n with every element zeroed.
func GrowZero[T any](buf *[]T, n int) []T {
	b := Grow(buf, n)
	clear(b)
	return b
}

// Stamps is an epoch-stamped membership set over dense ids [0, n). Reset
// bumps a generation counter, so clearing costs O(1) once the table is
// warm; only growth (or the ~never generation wraparound) pays O(n).
//
// The zero value is empty and ready for Reset.
type Stamps struct {
	mark []uint32
	cur  uint32
}

// Reset prepares the set to track ids in [0, n), forgetting all marks.
func (s *Stamps) Reset(n int) {
	if cap(s.mark) < n {
		s.mark = make([]uint32, n)
		s.cur = 0
	}
	s.mark = s.mark[:n]
	s.cur++
	if s.cur == 0 {
		// The generation counter wrapped: stale marks from 2^32 resets ago
		// could collide with the new generation. Clear the whole backing
		// array (not just [:n]) so shrink-then-grow cannot resurface them.
		clear(s.mark[:cap(s.mark)])
		s.cur = 1
	}
}

// Has reports whether id i is in the set.
func (s *Stamps) Has(i int) bool { return s.mark[i] == s.cur }

// Add inserts id i.
func (s *Stamps) Add(i int) { s.mark[i] = s.cur }

// TryAdd inserts id i and reports whether it was newly inserted.
func (s *Stamps) TryAdd(i int) bool {
	if s.mark[i] == s.cur {
		return false
	}
	s.mark[i] = s.cur
	return true
}
