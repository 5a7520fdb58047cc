// Package bitset provides word-packed bit sets over a fixed universe of
// integers. They are the storage format of the reachability engine: the
// service indicator I1(m,k,i), placement decisions x_{m,i}, and greedy
// coverage bookkeeping are all bit matrices, and packing them 64 per word
// turns the evaluator's inner loops into single AND/popcount instructions.
//
// A Set is a plain []uint64, so hot loops that need word-level access (e.g.
// masked iteration fused with a probability sum) can range over the words
// directly instead of paying a closure call per bit.
package bitset

import "math/bits"

// Words returns the number of 64-bit words needed to hold n bits.
func Words(n int) int { return (n + 63) >> 6 }

// Set is a word-packed bit set. Bit i lives in word i/64 at position i%64.
// The universe size is fixed at allocation; bits past the universe in the
// last word are kept zero by every operation except TrimLast's callers.
type Set []uint64

// New returns an all-zero set able to hold n bits.
func New(n int) Set { return make(Set, Words(n)) }

// Set sets bit i.
func (s Set) Set(i int) { s[i>>6] |= 1 << (uint(i) & 63) }

// Clear clears bit i.
func (s Set) Clear(i int) { s[i>>6] &^= 1 << (uint(i) & 63) }

// Has reports bit i.
func (s Set) Has(i int) bool { return s[i>>6]&(1<<(uint(i)&63)) != 0 }

// Zero clears every bit.
func (s Set) Zero() {
	for w := range s {
		s[w] = 0
	}
}

// SetAll sets bits [0, n); words past Words(n) are cleared. The set must
// have been allocated for at least n bits.
func (s Set) SetAll(n int) {
	full := n >> 6
	for w := 0; w < full; w++ {
		s[w] = ^uint64(0)
	}
	for w := full; w < len(s); w++ {
		s[w] = 0
	}
	if rem := uint(n) & 63; rem != 0 {
		s[full] = (1 << rem) - 1
	}
}

// Count returns the number of set bits.
func (s Set) Count() int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

// Any reports whether any bit is set.
func (s Set) Any() bool {
	for _, w := range s {
		if w != 0 {
			return true
		}
	}
	return false
}

// Or sets s to s ∪ t. The sets must have equal length.
func (s Set) Or(t Set) {
	for w, v := range t {
		s[w] |= v
	}
}

// AndNot sets s to s \ t. The sets must have equal length.
func (s Set) AndNot(t Set) {
	for w, v := range t {
		s[w] &^= v
	}
}

// CopyFrom overwrites s with t. The sets must have equal length.
func (s Set) CopyFrom(t Set) { copy(s, t) }

// Equal reports whether s and t hold identical bits. The sets must have
// equal length.
func (s Set) Equal(t Set) bool {
	for w, v := range t {
		if s[w] != v {
			return false
		}
	}
	return true
}

// SubsetOf reports whether s ⊆ t: no word of s \ t has a bit set. The sets
// must have equal length.
func (s Set) SubsetOf(t Set) bool {
	for w, v := range s {
		if v&^t[w] != 0 {
			return false
		}
	}
	return true
}

// Intersects reports whether a ∩ b is non-empty. The sets must have equal
// length.
func Intersects(a, b Set) bool {
	for w, v := range a {
		if v&b[w] != 0 {
			return true
		}
	}
	return false
}

// ForEach calls fn for every set bit in ascending order.
func (s Set) ForEach(fn func(i int)) {
	for w, v := range s {
		for ; v != 0; v &= v - 1 {
			fn(w<<6 | bits.TrailingZeros64(v))
		}
	}
}
