// Package bitset provides a compact, fixed-capacity bit set used throughout
// the simulator for vertex sets (active sets, marks, membership flags).
//
// The zero value is an empty set with zero capacity; use New to allocate a
// set that can hold indices in [0, n).
package bitset

import "math/bits"

const wordBits = 64

// Set is a fixed-capacity bit set over indices [0, n).
type Set struct {
	words []uint64
	n     int
}

// New returns an empty set with capacity for indices in [0, n).
func New(n int) *Set {
	if n < 0 {
		n = 0
	}
	return &Set{
		words: make([]uint64, (n+wordBits-1)/wordBits),
		n:     n,
	}
}

// Len returns the capacity n the set was created with.
func (s *Set) Len() int { return s.n }

// Add inserts i into the set. Indices outside [0, n) are ignored.
func (s *Set) Add(i int) {
	if i < 0 || i >= s.n {
		return
	}
	s.words[i/wordBits] |= 1 << uint(i%wordBits)
}

// Remove deletes i from the set. Indices outside [0, n) are ignored.
func (s *Set) Remove(i int) {
	if i < 0 || i >= s.n {
		return
	}
	s.words[i/wordBits] &^= 1 << uint(i%wordBits)
}

// Contains reports whether i is in the set.
func (s *Set) Contains(i int) bool {
	if i < 0 || i >= s.n {
		return false
	}
	return s.words[i/wordBits]&(1<<uint(i%wordBits)) != 0
}

// Count returns the number of elements in the set.
func (s *Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// CountRange returns the number of elements in [lo, hi), the range clamped
// to [0, n): one popcount per word, the two end words masked to the range.
func (s *Set) CountRange(lo, hi int) int {
	lo, hi = max(lo, 0), min(hi, s.n)
	if lo >= hi {
		return 0
	}
	first, last := lo/wordBits, (hi-1)/wordBits
	loMask := ^uint64(0) << uint(lo%wordBits)
	hiMask := ^uint64(0) >> uint(wordBits-1-(hi-1)%wordBits)
	if first == last {
		return bits.OnesCount64(s.words[first] & loMask & hiMask)
	}
	c := bits.OnesCount64(s.words[first]&loMask) + bits.OnesCount64(s.words[last]&hiMask)
	for _, w := range s.words[first+1 : last] {
		c += bits.OnesCount64(w)
	}
	return c
}

// Clear removes all elements.
func (s *Set) Clear() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// Fill adds every index in [0, n).
func (s *Set) Fill() {
	for i := range s.words {
		s.words[i] = ^uint64(0)
	}
	s.trimTail()
}

// Clone returns an independent copy of the set.
func (s *Set) Clone() *Set {
	c := &Set{
		words: make([]uint64, len(s.words)),
		n:     s.n,
	}
	copy(c.words, s.words)
	return c
}

// Union adds every element of o to s. Sets must have equal capacity; if they
// differ, only the overlapping words are merged.
func (s *Set) Union(o *Set) {
	k := min(len(s.words), len(o.words))
	for i := 0; i < k; i++ {
		s.words[i] |= o.words[i]
	}
	s.trimTail()
}

// Intersect keeps only elements present in both s and o.
func (s *Set) Intersect(o *Set) {
	k := min(len(s.words), len(o.words))
	for i := 0; i < k; i++ {
		s.words[i] &= o.words[i]
	}
	for i := k; i < len(s.words); i++ {
		s.words[i] = 0
	}
}

// Subtract removes every element of o from s.
func (s *Set) Subtract(o *Set) {
	k := min(len(s.words), len(o.words))
	for i := 0; i < k; i++ {
		s.words[i] &^= o.words[i]
	}
}

// Equal reports whether s and o contain exactly the same elements.
func (s *Set) Equal(o *Set) bool {
	if s.n != o.n {
		return false
	}
	for i := range s.words {
		if s.words[i] != o.words[i] {
			return false
		}
	}
	return true
}

// ForEach calls f for every element in ascending order. Iteration stops if f
// returns false.
func (s *Set) ForEach(f func(i int) bool) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			if !f(wi*wordBits + b) {
				return
			}
			w &= w - 1
		}
	}
}

// Next returns the smallest element >= i, or -1 if there is none. A negative
// i starts from 0. It skips empty words a word at a time, so a scan
// `for v := s.Next(lo); v >= 0 && v < hi; v = s.Next(v + 1)` visits only the
// members of [lo, hi).
func (s *Set) Next(i int) int {
	if i < 0 {
		i = 0
	}
	if i >= s.n {
		return -1
	}
	wi := i / wordBits
	w := s.words[wi] >> uint(i%wordBits)
	if w != 0 {
		return i + bits.TrailingZeros64(w)
	}
	for wi++; wi < len(s.words); wi++ {
		if w := s.words[wi]; w != 0 {
			return wi*wordBits + bits.TrailingZeros64(w)
		}
	}
	return -1
}

// Elements returns the elements in ascending order.
func (s *Set) Elements() []int {
	out := make([]int, 0, s.Count())
	s.ForEach(func(i int) bool {
		out = append(out, i)
		return true
	})
	return out
}

// PackRange serializes membership of the indices in [lo, hi) into
// ⌈(hi−lo)/64⌉ words: bit j of the result holds membership of index lo+j.
// The range is clamped to [0, n). Used by checkpointing to snapshot one
// machine's slice of a vertex set.
func (s *Set) PackRange(lo, hi int) []uint64 {
	if lo < 0 {
		lo = 0
	}
	if hi > s.n {
		hi = s.n
	}
	if hi < lo {
		hi = lo
	}
	out := make([]uint64, (hi-lo+wordBits-1)/wordBits)
	for i := lo; i < hi; i++ {
		if s.Contains(i) {
			j := i - lo
			out[j/wordBits] |= 1 << uint(j%wordBits)
		}
	}
	return out
}

// UnpackRange overwrites membership of the indices in [lo, hi) from a
// PackRange payload (bit j of data holds membership of index lo+j; missing
// words clear). Indices outside the range are untouched.
func (s *Set) UnpackRange(lo, hi int, data []uint64) {
	if lo < 0 {
		lo = 0
	}
	if hi > s.n {
		hi = s.n
	}
	for i := lo; i < hi; i++ {
		j := i - lo
		w := j / wordBits
		if w < len(data) && data[w]&(1<<uint(j%wordBits)) != 0 {
			s.Add(i)
		} else {
			s.Remove(i)
		}
	}
}

// trimTail clears bits at positions >= n in the final word so Count and
// iteration never observe out-of-range indices.
func (s *Set) trimTail() {
	if r := s.n % wordBits; r != 0 && len(s.words) > 0 {
		s.words[len(s.words)-1] &= (1 << uint(r)) - 1
	}
}
