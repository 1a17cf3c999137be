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
// the requested value: equal keys of different inner types, and different
// values sharing one slot, each get their own box.
func TestBoxTableConfirmsHitsByValue(t *testing.T) {
	var tab boxTable
	a, b := composed(StatusRB, 2, keyedA(7)), composed(StatusRB, 2, keyedB(7))
	ka, _ := a.Key64()
	if kb, _ := b.Key64(); ka != kb {
		t.Fatalf("test states must share a key: %d vs %d", ka, kb)
	}
	for range 2 {
		if got := tab.box(a); got != sim.State(a) {
			t.Fatalf("box(%v) = %v", a, got)
		}
		if got := tab.box(b); got != sim.State(b) {
			t.Fatalf("box(%v) = %v (same key, other inner type)", b, got)
		}
	}
	c := slotMate(a)
	for range 2 {
		if got := tab.box(a); got != sim.State(a) {
			t.Fatalf("box(%v) = %v", a, got)
		}
		if got := tab.box(c); got != sim.State(c) {
			t.Fatalf("box(%v) = %v (same slot, other key)", c, got)
		}
	}
}

// slotMate returns a value other than cs that lands in cs's slot.
func slotMate(cs ComposedState) ComposedState {
	k, _ := cs.Key64()
	for v := 1; ; v++ {
		mate := composed(cs.SDR.St, cs.SDR.D, keyedA(int(cs.Inner.(keyedA))+v))
		if km, _ := mate.Key64(); boxSlot(km) == boxSlot(k) {
			return mate
		}
	}
}

// TestBoxTableSharesBoxes checks what a call costs: boxing a value the table
// holds allocates nothing, while a miss, and a value whose Key64 does not
// fit, allocate the one box a plain construction allocates, and the latter
// leaves the table untouched.
func TestBoxTableSharesBoxes(t *testing.T) {
	var tab boxTable
	held := composed(StatusC, 3, keyedA(40))
	tab.box(held)
	if allocs := testing.AllocsPerRun(100, func() { tab.box(held) }); allocs != 0 {
		t.Errorf("boxing a held value allocates %.1f times, want 0", allocs)
	}
	// Two values sharing a slot evict each other, so every call misses.
	mate, i := slotMate(held), 0
	if allocs := testing.AllocsPerRun(100, func() {
		if i++; i%2 == 0 {
			tab.box(held)
		} else {
			tab.box(mate)
		}
	}); allocs != 1 {
		t.Errorf("a miss allocates %.1f times, want 1", allocs)
	}
	tab.box(held)
	far := composed(StatusRF, 1<<20, keyedA(40))
	if _, ok := far.Key64(); ok {
		t.Fatal("a distance of 2^20 must not fit Key64")
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if tab.box(far) != sim.State(far) {
			t.Fatal("a value whose key does not fit came back changed")
		}
	}); allocs != 1 {
		t.Errorf("boxing a value whose key does not fit allocates %.1f times, want 1", allocs)
	}
	for i := range tab {
		if v := tab[i].Load(); v != nil && v != sim.State(held) {
			t.Errorf("slot %d holds %v; only %v and %v were published, %v last", i, v, held, mate, held)
		}
	}
}

// TestBoxTableConcurrent boxes a small set of values that share slots from
// several goroutines at once; every call must return a box equal to its
// argument. Run it under -race.
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
				if got := tab.box(cs); got != sim.State(cs) {
					t.Errorf("box(%v) = %v", cs, got)
					return
				}
			}
		}()
	}
	wg.Wait()
}
