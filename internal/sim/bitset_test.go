package sim

import (
	"math/rand"
	"slices"
	"testing"
)

// indices lists the elements of b in ascending order.
func indices(b bitset) []int {
	var out []int
	for wi, w := range b {
		out = appendWord(out, wi, w)
	}
	return out
}

func TestBitsetBasics(t *testing.T) {
	b := newBitset(130)
	if len(indices(b)) != 0 {
		t.Fatal("new bitset not empty")
	}
	for _, u := range []int{0, 63, 64, 129} {
		b.set(u)
		if !b.get(u) {
			t.Fatalf("bit %d not set", u)
		}
	}
	if got := indices(b); !slices.Equal(got, []int{0, 63, 64, 129}) {
		t.Fatalf("indices = %v", got)
	}
	b.clear(64)
	if b.get(64) || len(indices(b)) != 3 {
		t.Fatal("clear failed")
	}
	b.reset()
	if len(indices(b)) != 0 {
		t.Fatal("reset left bits behind")
	}
}

func TestBitsetSetAlgebra(t *testing.T) {
	// fill makes the set exactly [0, n), masking the bits past n in the
	// last word.
	for _, n := range []int{1, 63, 64, 65, 100, 128} {
		b := newBitset(n)
		b.set(0)
		b.fill(n)
		want := make([]int, n)
		for u := range want {
			want[u] = u
		}
		if got := indices(b); !slices.Equal(got, want) {
			t.Fatalf("fill(%d) = %v", n, got)
		}
	}
	// appendWord lists one word's elements at the word's offset, after
	// whatever dst holds.
	if got := appendWord([]int{7}, 2, 1|1<<5|1<<63); !slices.Equal(got, []int{7, 128, 133, 191}) {
		t.Fatalf("appendWord = %v", got)
	}
}

func TestBitsetAgainstMap(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	n := 200
	b := newBitset(n)
	ref := map[int]bool{}
	for i := 0; i < 2000; i++ {
		u := rng.Intn(n)
		if rng.Intn(2) == 0 {
			b.set(u)
			ref[u] = true
		} else {
			b.clear(u)
			delete(ref, u)
		}
	}
	var want []int
	for u := range ref {
		want = append(want, u)
	}
	slices.Sort(want)
	if got := indices(b); !slices.Equal(got, want) {
		t.Fatalf("bitset %v != map %v", got, want)
	}
}

func TestSanitizeSelectionInto(t *testing.T) {
	n := 12
	enabledBits := newBitset(n)
	dedup := newBitset(n)
	enabled := []int{1, 3, 5}
	for _, u := range enabled {
		enabledBits.set(u)
	}
	got := sanitizeSelectionInto(nil, []int{5, 3, 3, 9, -2, 40}, enabledBits, dedup, enabled)
	if !slices.Equal(got, []int{3, 5}) {
		t.Fatalf("sanitizeSelectionInto = %v, want [3 5]", got)
	}
	if len(indices(dedup)) != 0 {
		t.Fatal("dedup scratch not cleared")
	}
	got = sanitizeSelectionInto(nil, nil, enabledBits, dedup, enabled)
	if !slices.Equal(got, []int{1}) {
		t.Fatalf("fallback = %v, want [1]", got)
	}
}
