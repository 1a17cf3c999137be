package core

import "sdr/internal/sim"

// InnerView is the view an input algorithm I gets of its closed
// neighbourhood. It hides the difference between running standalone (states
// are plain inner states, no reset machinery) and running composed with SDR
// (states carry SDR variables): in both cases Self and Neighbor return inner
// states, and Clean exposes the SDR predicate P_Clean(u), which is vacuously
// true in standalone runs.
type InnerView struct {
	view     sim.View
	composed bool
	// clean records that the caller has already established P_Clean(u).
	clean bool
}

// Self returns the inner state of the process.
func (iv InnerView) Self() sim.State {
	if iv.composed {
		return InnerPart(iv.view.Self())
	}
	return iv.view.Self()
}

// Degree returns the number of neighbours.
func (iv InnerView) Degree() int { return iv.view.Degree() }

// Neighbor returns the inner state of the i-th neighbour. It reads the
// neighbour once and then branches, so that it stays within the inliner's
// budget: inner algorithms call it once per neighbour of every guard.
func (iv InnerView) Neighbor(i int) sim.State {
	s := iv.view.Neighbor(i)
	if iv.composed {
		return mustComposed(s).Inner
	}
	return s
}

// ID returns the identifier of the process (identified networks only).
func (iv InnerView) ID() int { return iv.view.ID() }

// NeighborID returns the identifier of the i-th neighbour (identified
// networks only).
func (iv InnerView) NeighborID(i int) int { return iv.view.NeighborID(i) }

// Process returns the simulator-level process index (instrumentation only).
func (iv InnerView) Process() int { return iv.view.Process() }

// Clean is the SDR predicate P_Clean(u): every member of the closed
// neighbourhood has status C. In standalone runs (no SDR) it is always true.
func (iv InnerView) Clean() bool {
	if !iv.composed || iv.clean {
		return true
	}
	if SDRPart(iv.view.Self()).St != StatusC {
		return false
	}
	for i := 0; i < iv.view.Degree(); i++ {
		if SDRPart(iv.view.Neighbor(i)).St != StatusC {
			return false
		}
	}
	return true
}

// AllNeighbors reports whether every neighbour's inner state satisfies pred.
func (iv InnerView) AllNeighbors(pred func(sim.State) bool) bool {
	for i := 0; i < iv.Degree(); i++ {
		if !pred(iv.Neighbor(i)) {
			return false
		}
	}
	return true
}

// CountNeighbors returns how many neighbour inner states satisfy pred.
func (iv InnerView) CountNeighbors(pred func(sim.State) bool) int {
	count := 0
	for i := 0; i < iv.Degree(); i++ {
		if pred(iv.Neighbor(i)) {
			count++
		}
	}
	return count
}

// NewInnerView adapts a raw view over composed states into an InnerView.
// It is exported for checkers and tests that need to evaluate inner
// predicates on composed configurations.
func NewInnerView(v sim.View) InnerView { return InnerView{view: v, composed: true} }

// NewStandaloneView adapts a raw view over plain inner states.
func NewStandaloneView(v sim.View) InnerView { return InnerView{view: v, composed: false} }

// InnerRule is a guarded rule of the input algorithm I, expressed over inner
// states. When the rule runs composed with SDR, the composition automatically
// strengthens the guard with P_Clean(u) ∧ P_ICorrect(u) so that Requirement
// 2c of the paper (I is disabled whenever ¬P_ICorrect(u) ∨ ¬P_Clean(u)) holds
// by construction.
type InnerRule struct {
	// Name identifies the rule in traces and statistics.
	Name string
	// Guard reports whether the rule is enabled.
	Guard func(InnerView) bool
	// Action computes the new inner state of the process.
	Action func(InnerView) sim.State
}

// Resettable is what an input algorithm I must provide to be composed with
// SDR (Section 3.5 of the paper):
//
//   - its rules and pre-defined initial state;
//   - P_ICorrect(u), the local-consistency predicate used to detect
//     inconsistencies (Requirement 2a: it must not read SDR variables and
//     must be closed by I);
//   - P_reset(u), which recognises the pre-defined reset state and reads
//     only the process's own inner variables (Requirement 2b);
//   - the reset macro, i.e. the reset state itself (Requirement 2e).
//
// Requirement 2c (I disabled when ¬P_ICorrect ∨ ¬P_Clean) is enforced by the
// composition; Requirement 2d (all-reset closed neighbourhoods are correct)
// is a property of the provided predicates that CheckRequirements verifies.
type Resettable interface {
	// Name returns the algorithm's short name.
	Name() string
	// InnerRules returns the rules of I. The slice must not be modified.
	InnerRules() []InnerRule
	// InitialInner returns the pre-defined initial state of process u
	// (the γ_init of the paper's non-stabilizing algorithms).
	InitialInner(u int, net *sim.Network) sim.State
	// ICorrect is P_ICorrect(u), evaluated on the inner states of the closed
	// neighbourhood of u.
	ICorrect(v InnerView) bool
	// Decide returns P_ICorrect(u) and, when it holds, the index of the
	// first rule of InnerRules() whose Guard holds at v, or -1 when none
	// does (rule is -1 whenever correct is false). It is what the
	// compositions' rule indexers ask, so it decides both in one pass over
	// the closed neighbourhood and allocates nothing. ICorrect and the
	// Guards stay the specification: Decide must agree with them on every
	// view, and is only a faster way to evaluate them together.
	Decide(v InnerView) (correct bool, rule int)
	// IsReset is P_reset(u): whether the given inner state is the pre-defined
	// reset state of process u. It reads only the process's own state
	// (Requirement 2b) but may depend on the process's constants (its
	// identifier, its being a designated root, ...), which is why the process
	// index and the network are supplied. It must recognise exactly the
	// states produced by ResetState: accepting states that are not the
	// process's reset state breaks Requirement 2d and, with it, the
	// no-alive-root-creation property (Theorem 3).
	IsReset(u int, net *sim.Network, inner sim.State) bool
	// ResetState is the reset(u) macro: the pre-defined state installed when
	// u is reset. It must satisfy IsReset (Requirement 2e).
	ResetState(u int, net *sim.Network) sim.State
}

// InnerEnumerable is optionally implemented by inner algorithms whose local
// state space can be enumerated. The compositions build their own
// sim.Enumerable space from it, so fault injection and exhaustive
// verification reach the composition on small networks.
type InnerEnumerable interface {
	// InnerStateCount returns the size of process u's inner state space.
	InnerStateCount(u int, net *sim.Network) int
	// InnerStateAt returns the i-th inner state of process u, for
	// 0 ≤ i < InnerStateCount(u, net).
	InnerStateAt(u int, net *sim.Network, i int) sim.State
}
