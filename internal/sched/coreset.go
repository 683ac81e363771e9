package sched

import "math/bits"

// CoreSet is a set of core ids held as a bitset, one bit per core, so a
// model can keep the cores in some state and find the lowest-numbered one
// in a few word reads instead of scanning every core.
type CoreSet []uint64

// NewCoreSet returns an empty set for cores 0 to n-1.
func NewCoreSet(n int) CoreSet { return make(CoreSet, (n+63)/64) }

// Add puts core i in s.
func (s CoreSet) Add(i int) { s[i>>6] |= 1 << (i & 63) }

// Remove takes core i out of s.
func (s CoreSet) Remove(i int) { s[i>>6] &^= 1 << (i & 63) }

// Next returns the lowest core id in s that is at least i, or -1 if there
// is none.
func (s CoreSet) Next(i int) int {
	w := i >> 6
	if w >= len(s) {
		return -1
	}
	word := s[w] &^ (1<<(i&63) - 1)
	for word == 0 {
		if w++; w == len(s) {
			return -1
		}
		word = s[w]
	}
	return w<<6 | bits.TrailingZeros64(word)
}
