package sim

import (
	"math/rand"
	"slices"
	"testing"
)

func TestBitsetBasics(t *testing.T) {
	b := newBitset(130)
	if !b.empty() || b.count() != 0 {
		t.Fatal("new bitset not empty")
	}
	for _, u := range []int{0, 63, 64, 129} {
		b.set(u)
		if !b.get(u) {
			t.Fatalf("bit %d not set", u)
		}
	}
	if b.count() != 4 || b.empty() {
		t.Fatalf("count = %d, want 4", b.count())
	}
	if got := b.appendIndices(nil); !slices.Equal(got, []int{0, 63, 64, 129}) {
		t.Fatalf("appendIndices = %v", got)
	}
	b.clear(64)
	if b.get(64) || b.count() != 3 {
		t.Fatal("clear failed")
	}
	b.reset()
	if !b.empty() {
		t.Fatal("reset left bits behind")
	}
}

func TestBitsetSetAlgebra(t *testing.T) {
	n := 100
	a, was, now := newBitset(n), newBitset(n), newBitset(n)
	for _, u := range []int{1, 2, 3, 70, 71} {
		a.set(u)
	}
	for _, u := range []int{2, 70} {
		was.set(u)
	}
	now.set(70)
	// subtractDiff removes was\now = {2} only.
	d := newBitset(n)
	d.copyFrom(a)
	d.subtractDiff(was, now)
	if got := d.appendIndices(nil); !slices.Equal(got, []int{1, 3, 70, 71}) {
		t.Fatalf("subtractDiff = %v", got)
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
	if got := b.appendIndices(nil); !slices.Equal(got, want) {
		t.Fatalf("bitset %v != map %v", got, want)
	}
	if b.count() != len(want) {
		t.Fatalf("count %d != %d", b.count(), len(want))
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
	if !dedup.empty() {
		t.Fatal("dedup scratch not cleared")
	}
	got = sanitizeSelectionInto(nil, nil, enabledBits, dedup, enabled)
	if !slices.Equal(got, []int{1}) {
		t.Fatalf("fallback = %v, want [1]", got)
	}
}
