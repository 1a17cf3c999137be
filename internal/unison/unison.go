// Package unison implements the asynchronous unison instantiations of the
// paper (Section 5): Algorithm U, its self-stabilizing composition U ∘ SDR,
// and the Boulinier-Petit-Villain baseline the paper compares against.
//
// The unison problem: every process holds a periodic clock (period K); each
// process must increment its clock infinitely often (liveness) while the
// clocks of neighbours never differ by more than one increment (safety).
package unison

import (
	"fmt"
	"strconv"

	"sdr/internal/core"
	"sdr/internal/sim"
)

// ClockState is the local state of Algorithm U: a single clock value
// c_u ∈ {0, ..., K-1}.
type ClockState struct {
	// C is the clock value.
	C int
}

var _ sim.State = ClockState{}

// Equal implements sim.State.
func (s ClockState) Equal(other sim.State) bool {
	o, ok := other.(ClockState)
	return ok && o.C == s.C
}

// String implements sim.State.
func (s ClockState) String() string { return fmt.Sprintf("c=%d", s.C) }

// AppendStateKey implements sim.KeyAppender: exactly the String() bytes,
// without allocating.
func (s ClockState) AppendStateKey(dst []byte) []byte {
	dst = append(dst, "c="...)
	return strconv.AppendInt(dst, int64(s.C), 10)
}

// Key64 implements sim.KeyedState: the zigzagged clock always fits.
func (s ClockState) Key64() (uint64, bool) { return sim.ZigZag64(s.C), true }

// Unison is Algorithm U (Algorithm 2 of the paper): anonymous, non
// self-stabilizing unison with period K > n, designed to be composed with
// SDR. It implements core.Resettable.
type Unison struct {
	k int
}

var (
	_ core.Resettable      = (*Unison)(nil)
	_ core.InnerEnumerable = (*Unison)(nil)
)

// New returns Algorithm U with period k. It panics when k < 2. The paper
// requires K > n; DefaultPeriod gives the smallest such K.
func New(k int) *Unison {
	if k < 2 {
		panic(fmt.Sprintf("unison: period K must be at least 2, got %d", k))
	}
	return &Unison{k: k}
}

// K returns the period.
func (u *Unison) K() int { return u.k }

// UsesIdentifiers implements sim.IdentifierUser: Algorithm U is anonymous —
// its rules and predicates (including P_reset and P_ICorrect used by the
// SDR composition) read clock values only — so memoized guard caches may be
// shared across processes with equal neighbourhood states.
func (u *Unison) UsesIdentifiers() bool { return false }

// Name implements core.Resettable.
func (u *Unison) Name() string { return fmt.Sprintf("U(K=%d)", u.k) }

// InitialInner implements core.Resettable: in γ_init every clock is 0.
func (u *Unison) InitialInner(int, *sim.Network) sim.State { return ClockState{C: 0} }

// ResetState implements core.Resettable: the reset(u) macro sets c_u := 0.
func (u *Unison) ResetState(int, *sim.Network) sim.State { return ClockState{C: 0} }

// IsReset implements core.Resettable: P_reset(u) ≡ c_u = 0. The reset state
// is the same for every process, so the process index and network are unused.
func (u *Unison) IsReset(_ int, _ *sim.Network, inner sim.State) bool {
	s, ok := inner.(ClockState)
	return ok && s.C == 0
}

// clockOf extracts a clock value. A foreign state type is a wiring mistake,
// and the bare type assertion panics on it with the runtime's message naming
// both types; a formatted panic would keep this per-neighbour read from
// inlining.
func clockOf(s sim.State) int { return s.(ClockState).C }

// ok is P_Ok(u, v) ≡ c_v ∈ {(c_u-1)%K, c_u, (c_u+1)%K}. Clocks are always
// in [0, K) — they start and reset at 0, tick modulo K, and every other
// state (faults, churn, the checker) comes from InnerStateAt — so that is a
// difference c_v - c_u of 0, ±1 or ±(K-1).
func (u *Unison) ok(cu, cv int) bool {
	switch cv - cu {
	case 0, 1, -1, u.k - 1, 1 - u.k:
		return true
	}
	return false
}

// ICorrect implements core.Resettable:
// P_ICorrect(u) ≡ ∀v ∈ N(u), P_Ok(u, v).
func (u *Unison) ICorrect(v core.InnerView) bool {
	cu := clockOf(v.Self())
	for i := 0; i < v.Degree(); i++ {
		if !u.ok(cu, clockOf(v.Neighbor(i))) {
			return false
		}
	}
	return true
}

// pUp is P_Up(u) ≡ ∀v ∈ N(u), c_v ∈ {c_u, (c_u+1)%K}: u is on time or one
// increment late with respect to every neighbour, so it may tick.
func (u *Unison) pUp(v core.InnerView) bool {
	cu := clockOf(v.Self())
	next := u.tick(cu)
	for i := 0; i < v.Degree(); i++ {
		cv := clockOf(v.Neighbor(i))
		if cv != cu && cv != next {
			return false
		}
	}
	return true
}

// Decide implements core.Resettable: one scan of the neighbours checks P_Ok
// for P_ICorrect(u) and P_Up(u) for the tick rule together.
func (u *Unison) Decide(v core.InnerView) (correct bool, rule int) {
	cu := clockOf(v.Self())
	next := u.tick(cu)
	up := true
	for i, deg := 0, v.Degree(); i < deg; i++ {
		cv := clockOf(v.Neighbor(i))
		if !u.ok(cu, cv) {
			return false, -1
		}
		up = up && (cv == cu || cv == next)
	}
	if up && v.Clean() {
		return true, 0
	}
	return true, -1
}

// RuleTick is the name of Algorithm U's single rule.
const RuleTick = "tick"

// InnerRules implements core.Resettable. The single rule is
// rule_U(u): P_Clean(u) ∧ P_Up(u) → c_u := (c_u + 1) % K.
// P_Clean is supplied by the view (vacuously true standalone); the
// composition additionally enforces P_ICorrect, which P_Up implies.
func (u *Unison) InnerRules() []core.InnerRule {
	return []core.InnerRule{{
		Name: RuleTick,
		Guard: func(v core.InnerView) bool {
			return v.Clean() && u.pUp(v)
		},
		Action: func(v core.InnerView) sim.State {
			c := u.tick(clockOf(v.Self()))
			if c < 256 {
				// Go boxes 8-byte values below 256 without allocating.
				return ClockState{C: c}
			}
			return core.Box(ClockState{C: c})
		},
	}}
}

// InnerStateCount implements core.InnerEnumerable: all K clock values.
func (u *Unison) InnerStateCount(int, *sim.Network) int { return u.k }

// InnerStateAt implements core.InnerEnumerable: the clock values in
// increasing order.
func (u *Unison) InnerStateAt(_ int, _ *sim.Network, i int) sim.State {
	return ClockState{C: i}
}

// tick returns (c+1) % K for a clock c in [0, K) (see ok) by compare and
// wrap: it runs once per guard evaluation and per tick, where an integer
// division is a large share of the whole neighbour scan of a low-degree
// process.
func (u *Unison) tick(c int) int {
	if c++; c == u.k {
		return 0
	}
	return c
}

// mod returns x modulo k in [0, k).
func mod(x, k int) int {
	r := x % k
	if r < 0 {
		r += k
	}
	return r
}

// CircularDistance returns the circular distance between two clock values
// modulo k: min((a-b) mod k, (b-a) mod k). It is the drift measure used by
// the unison safety specification.
func CircularDistance(a, b, k int) int {
	d1 := mod(a-b, k)
	d2 := mod(b-a, k)
	if d1 < d2 {
		return d1
	}
	return d2
}
