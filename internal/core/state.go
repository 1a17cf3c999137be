package core

import (
	"fmt"
	"sync/atomic"

	"sdr/internal/sim"
)

// ComposedState is the state of a process in the composition I ∘ SDR: the two
// SDR variables plus the full local state of the inner algorithm I.
type ComposedState struct {
	// SDR holds st_u and d_u.
	SDR SDRState
	// Inner is the local state of the inner algorithm.
	Inner sim.State
}

var _ sim.State = ComposedState{}

// Equal implements sim.State.
func (s ComposedState) Equal(other sim.State) bool {
	o, ok := other.(ComposedState)
	return ok && s.SDR.Equal(o.SDR) && s.Inner.Equal(o.Inner)
}

// String implements sim.State.
func (s ComposedState) String() string {
	return fmt.Sprintf("{%s %s}", s.SDR, s.Inner)
}

// AppendStateKey implements sim.KeyAppender: it appends exactly the String()
// rendering, delegating the inner part to its own bypass when it has one.
func (s ComposedState) AppendStateKey(dst []byte) []byte {
	dst = append(dst, '{')
	dst = s.SDR.AppendKey(dst)
	dst = append(dst, ' ')
	dst = sim.AppendStateKey(dst, s.Inner)
	return append(dst, '}')
}

// Key64 implements sim.KeyedState: the status (2 bits), the zigzagged
// distance (16 bits) and the inner state's own encoding, when everything
// fits. The (C, d) states collapse to one rendering for every d; their
// distinct encodings simply intern to the same id, which the KeyedState
// contract allows.
func (s ComposedState) Key64() (uint64, bool) {
	ik, ok := sim.StateKey64(s.Inner)
	zd := sim.ZigZag64(s.SDR.D)
	if !ok || ik >= 1<<46 || zd >= 1<<16 || !s.SDR.St.Valid() {
		return 0, false
	}
	return ik<<18 | zd<<2 | uint64(s.SDR.St-StatusC), true
}

// boxTableBits sets the size of the box table: 1<<12 slots.
const boxTableBits = 12

// boxTable hash-conses the states rule actions return (Filliâtre &
// Conchon, "Type-safe modular hash-consing", 2006): after the first reset
// wave a composition whose product state takes few distinct values hands
// out boxes an earlier move already built instead of boxing a fresh state
// per move. It is two-way set-associative and lock-free: a key selects a
// pair of slots, each slot points at a box of any state type, the last box
// published to the pair sits in its first slot and the one before it in the
// second, and concurrent shards read and replace slots atomically. Sharing
// is exact because states are immutable values and a hit is confirmed by
// comparing values, never by the hash alone.
type boxTable [1 << boxTableBits]atomic.Pointer[sim.State]

// boxes is the table Box uses. Like a sync.Pool it changes no result, only
// which equal box a caller gets, so states of every type (a hit compares
// the dynamic type too) and concurrent runs may share it, and composing
// allocates no table.
var boxes boxTable

// Box returns s as a sim.State: the box the shared table holds for a value
// equal to s (same dynamic type and value), and otherwise a fresh box, which
// it publishes to the table. A hit allocates nothing; a miss allocates the
// box a plain conversion allocates and the slot's pointer to it. A state
// whose Key64 does not fit is boxed without touching the table. The
// composed rule actions return every state through it, and inner
// algorithms may too, for states Go cannot box without allocating.
func Box[S boxable](s S) sim.State { return boxIn(&boxes, s) }

// boxable is what Box needs of a state type: values it can compare, and a
// Key64 to find their slots by.
type boxable interface {
	comparable
	sim.State
	sim.KeyedState
}

// boxIn is Box over the given table.
func boxIn[S boxable](t *boxTable, s S) sim.State {
	k, ok := s.Key64()
	if !ok {
		return s
	}
	pair := t[boxPair(k):][:2]
	for i := range pair {
		if held := pair[i].Load(); held != nil {
			if h, ok := (*held).(S); ok && h == s {
				return *held
			}
		}
	}
	boxed := sim.State(s)
	pair[1].Store(pair[0].Load())
	pair[0].Store(&boxed)
	return boxed
}

// boxPair maps a Key64 encoding to the first slot of its pair by Fibonacci
// hashing, which spreads the encodings' packed fields over the whole table.
func boxPair(k uint64) int { return int((k*0x9E3779B97F4A7C15)>>(64-boxTableBits)) &^ 1 }

// mustComposed extracts the composed state. Running composed rules on plain
// inner states is a wiring mistake, and the bare type assertion panics on it
// with the runtime's message naming both types ("interface conversion:
// sim.State is unison.ClockState, not core.ComposedState"). It is a bare
// assertion, not a checked one with a formatted panic, because the formatting
// call would push it and every accessor above it (SDRPart, InnerPart,
// InnerView.Self/Neighbor) past the inliner's budget, and these run once per
// neighbour read.
func mustComposed(s sim.State) ComposedState { return s.(ComposedState) }

// SDRPart returns the SDR variables of the composed state held by s. It
// panics if s is not a ComposedState.
func SDRPart(s sim.State) SDRState { return mustComposed(s).SDR }

// InnerPart returns the inner-algorithm state of the composed state held by
// s. It panics if s is not a ComposedState.
func InnerPart(s sim.State) sim.State { return mustComposed(s).Inner }

// WithSDR returns a copy of composed state s with the SDR part replaced.
func WithSDR(s sim.State, sdr SDRState) sim.State {
	return ComposedState{SDR: sdr, Inner: mustComposed(s).Inner}
}

// WithInner returns a copy of composed state s with the inner part replaced.
func WithInner(s sim.State, inner sim.State) sim.State {
	cs := mustComposed(s)
	return ComposedState{SDR: cs.SDR, Inner: inner}
}
