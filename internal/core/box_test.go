package core

import (
	"sync"
	"testing"

	"sdr/internal/sim"
)

// keyedA and keyedB are inner states with equal Key64 encodings for equal
// integers, so that a table hit must tell them apart by dynamic type.
type (
	keyedA int
	keyedB int
)

func (s keyedA) Equal(o sim.State) bool { return o == sim.State(s) }
func (s keyedA) String() string         { return "a" + itoa(int(s)) }
func (s keyedA) Key64() (uint64, bool)  { return uint64(s), s >= 0 }

func (s keyedB) Equal(o sim.State) bool { return o == sim.State(s) }
func (s keyedB) String() string         { return "b" + itoa(int(s)) }
func (s keyedB) Key64() (uint64, bool)  { return uint64(s), s >= 0 }

func composed(st Status, d int, in sim.State) ComposedState {
	return ComposedState{SDR: SDRState{St: st, D: d}, Inner: in}
}

// TestBoxTableConfirmsHitsByValue checks that a hit returns a box equal to
// the requested value: equal keys of different inner types, equal keys of
// different state types, and different values sharing one pair of slots,
// each get their own box.
func TestBoxTableConfirmsHitsByValue(t *testing.T) {
	var tab boxTable
	a, b := composed(StatusRB, 2, keyedA(7)), composed(StatusRB, 2, keyedB(7))
	ka, _ := a.Key64()
	if kb, _ := b.Key64(); ka != kb {
		t.Fatalf("test states must share a key: %d vs %d", ka, kb)
	}
	plain := keyedA(ka)
	for range 2 {
		if got := boxIn(&tab, a); got != sim.State(a) {
			t.Fatalf("box(%v) = %v", a, got)
		}
		if got := boxIn(&tab, b); got != sim.State(b) {
			t.Fatalf("box(%v) = %v (same key, other inner type)", b, got)
		}
		if got := boxIn(&tab, plain); got != sim.State(plain) {
			t.Fatalf("box(%v) = %v (same key, other state type)", plain, got)
		}
	}
	c := pairMates(a, 1)[0]
	for range 2 {
		if got := boxIn(&tab, a); got != sim.State(a) {
			t.Fatalf("box(%v) = %v", a, got)
		}
		if got := boxIn(&tab, c); got != sim.State(c) {
			t.Fatalf("box(%v) = %v (same pair, other key)", c, got)
		}
	}
}

// pairMates returns count values other than cs, with distinct keys, that
// land in cs's pair of slots.
func pairMates(cs ComposedState, count int) []ComposedState {
	k, _ := cs.Key64()
	var mates []ComposedState
	for v := 1; len(mates) < count; v++ {
		mate := composed(cs.SDR.St, cs.SDR.D, keyedA(int(cs.Inner.(keyedA))+v))
		if km, _ := mate.Key64(); boxPair(km) == boxPair(k) {
			mates = append(mates, mate)
		}
	}
	return mates
}

// TestBoxTableSharesBoxes checks what a call costs: boxing a value the table
// holds allocates nothing, a miss allocates the box a plain construction
// allocates and the slot's pointer to it, and a value whose Key64 does not
// fit allocates the one box and leaves the table untouched. It also checks
// the replacement order: two values of one pair both stay held, and a third
// evicts the one published first.
func TestBoxTableSharesBoxes(t *testing.T) {
	var tab boxTable
	held := composed(StatusC, 3, keyedA(40))
	mates := pairMates(held, 2)
	boxIn(&tab, held)
	boxIn(&tab, mates[0])
	if allocs := testing.AllocsPerRun(100, func() {
		boxIn(&tab, held)
		boxIn(&tab, mates[0])
	}); allocs != 0 {
		t.Errorf("boxing two held values of one pair allocates %.1f times, want 0", allocs)
	}
	// Three values sharing a pair, boxed in turn from the one the pair
	// does not hold, evict each other, so every call misses.
	cycle, i := []ComposedState{mates[1], held, mates[0]}, 0
	if allocs := testing.AllocsPerRun(99, func() {
		boxIn(&tab, cycle[i%3])
		i++
	}); allocs != 2 {
		t.Errorf("a miss allocates %.1f times, want 2", allocs)
	}
	boxIn(&tab, held)
	far := composed(StatusRF, 1<<20, keyedA(40))
	if _, ok := far.Key64(); ok {
		t.Fatal("a distance of 2^20 must not fit Key64")
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if boxIn(&tab, far) != sim.State(far) {
			t.Fatal("a value whose key does not fit came back changed")
		}
	}); allocs != 1 {
		t.Errorf("boxing a value whose key does not fit allocates %.1f times, want 1", allocs)
	}
	k, _ := held.Key64()
	for i := range tab {
		p := tab[i].Load()
		switch {
		case i == boxPair(k):
			if p == nil || *p != sim.State(held) {
				t.Errorf("the first slot of the pair holds %v, want %v, boxed last", p, held)
			}
		case i == boxPair(k)+1:
			if p == nil || (*p != sim.State(mates[0]) && *p != sim.State(mates[1])) {
				t.Errorf("the second slot of the pair holds %v, want one of %v", p, mates)
			}
		case p != nil:
			t.Errorf("slot %d outside the pair holds %v", i, *p)
		}
	}
}

// TestBoxTableConcurrent boxes a small set of values of two state types
// that share slots from several goroutines at once; every call must return
// a box equal to its argument. Run it under -race.
func TestBoxTableConcurrent(t *testing.T) {
	var tab boxTable
	var vals []ComposedState
	for v := range 64 {
		vals = append(vals, composed(StatusC, v%3, keyedA(v)), composed(StatusC, v%3, keyedB(v)))
	}
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 2000 {
				cs := vals[(i*(g+1))%len(vals)]
				if got := boxIn(&tab, cs); got != sim.State(cs) {
					t.Errorf("box(%v) = %v", cs, got)
					return
				}
				k, _ := cs.Key64()
				if got := boxIn(&tab, keyedA(k)); got != sim.State(keyedA(k)) {
					t.Errorf("box(%v) = %v", keyedA(k), got)
					return
				}
			}
		}()
	}
	wg.Wait()
}
