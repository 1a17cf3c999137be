package sim

import "math/bits"

// bitset is a fixed-capacity set of process indices packed into 64-bit
// words. The engine's hot loop uses it for the enabled set and the
// neutralization-based round accounting, where the per-step set algebra
// (difference, copy, emptiness) runs word-wise instead of through maps.
type bitset []uint64

// newBitset returns an empty bitset able to hold indices in [0, n).
func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

// set adds u to the set.
func (b bitset) set(u int) { b[u>>6] |= 1 << uint(u&63) }

// clear removes u from the set.
func (b bitset) clear(u int) { b[u>>6] &^= 1 << uint(u&63) }

// get reports whether u is in the set.
func (b bitset) get(u int) bool { return b[u>>6]&(1<<uint(u&63)) != 0 }

// reset empties the set.
func (b bitset) reset() {
	for i := range b {
		b[i] = 0
	}
}

// fill makes the set hold exactly the indices in [0, n).
func (b bitset) fill(n int) {
	for i := range b {
		b[i] = ^uint64(0)
	}
	if r := n & 63; r != 0 {
		b[len(b)-1] = 1<<uint(r) - 1
	}
}

// copyFrom makes b an exact copy of o (same capacity required).
func (b bitset) copyFrom(o bitset) { copy(b, o) }

// subtractDiff removes (was \ now) from b, i.e. the elements that left the
// set between the two snapshots.
func (b bitset) subtractDiff(was, now bitset) {
	for i := range b {
		b[i] &^= was[i] &^ now[i]
	}
}

// empty reports whether the set has no elements.
func (b bitset) empty() bool {
	for _, w := range b {
		if w != 0 {
			return false
		}
	}
	return true
}

// count returns the number of elements in the set.
func (b bitset) count() int {
	total := 0
	for _, w := range b {
		total += bits.OnesCount64(w)
	}
	return total
}

// appendIndices appends the elements of the set to dst in ascending order
// and returns the extended slice.
func (b bitset) appendIndices(dst []int) []int {
	for wi, word := range b {
		base := wi << 6
		for word != 0 {
			dst = append(dst, base+bits.TrailingZeros64(word))
			word &= word - 1
		}
	}
	return dst
}
