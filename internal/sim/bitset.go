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

// appendWord appends the elements that word wi of a bitset holds to dst in
// ascending order and returns the extended slice. The engine's shards list
// their enabled processes a word at a time, right after deciding the word.
func appendWord(dst []int, wi int, word uint64) []int {
	for base := wi << 6; word != 0; word &= word - 1 {
		dst = append(dst, base+bits.TrailingZeros64(word))
	}
	return dst
}
