package alliance

import (
	"fmt"

	"sdr/internal/core"
	"sdr/internal/graph"
	"sdr/internal/sim"
)

// FGA is Algorithm 3 of the paper: a distributed (non self-stabilizing)
// algorithm that computes a 1-minimal (f,g)-alliance in an identified
// network, designed to be composed with SDR. Starting from the pre-defined
// configuration where every process is in the alliance, processes leave one
// at a time (locally centrally, thanks to the approval pointers) until the
// alliance is 1-minimal.
//
// It implements core.Resettable so that core.Compose(FGA) is the
// self-stabilizing FGA ∘ SDR of Section 6.5.
type FGA struct {
	spec Spec
}

var (
	_ core.Resettable      = (*FGA)(nil)
	_ core.InnerEnumerable = (*FGA)(nil)
)

// NewFGA returns Algorithm FGA for the given (f,g) specification.
func NewFGA(spec Spec) *FGA {
	if spec.F == nil || spec.G == nil {
		panic(fmt.Sprintf("alliance: spec %q must define both F and G", spec.Name))
	}
	return &FGA{spec: spec}
}

// Spec returns the (f,g) specification the algorithm solves.
func (a *FGA) Spec() Spec { return a.spec }

// Validate checks the solvability assumption δ_u ≥ max(f(u), g(u)) on g.
func (a *FGA) Validate(g *graph.Graph) error { return a.spec.Validate(g) }

// Name implements core.Resettable.
func (a *FGA) Name() string { return "FGA(" + a.spec.Name + ")" }

// InitialInner implements core.Resettable: in γ_init every process is in the
// alliance with scr = 1, canQ = true and ptr = ⊥.
func (a *FGA) InitialInner(int, *sim.Network) sim.State { return ResetFGAState() }

// ResetState implements core.Resettable: the reset(u) macro re-installs the
// pre-defined state.
func (a *FGA) ResetState(int, *sim.Network) sim.State { return ResetFGAState() }

// IsReset implements core.Resettable:
// P_reset(u) ≡ col_u ∧ ptr_u = ⊥ ∧ canQ_u ∧ scr_u = 1. The reset state is the
// same for every process, so the process index and network are unused.
func (a *FGA) IsReset(_ int, _ *sim.Network, inner sim.State) bool {
	s, ok := inner.(FGAState)
	return ok && s.Col && s.Ptr == NoPointer && s.CanQ && s.Scr == 1
}

// f returns f(u) for the viewed process.
func (a *FGA) f(v core.InnerView) int { return a.spec.F(v.Process(), v.Degree()) }

// g returns g(u) for the viewed process.
func (a *FGA) g(v core.InnerView) int { return a.spec.G(v.Process(), v.Degree()) }

// inAll is the macro #InAll(u) = |{w ∈ N(u) | col_w}|.
func (a *FGA) inAll(v core.InnerView) int {
	return v.CountNeighbors(func(s sim.State) bool { return fgaOf(s).Col })
}

// realScr is the macro realScr(u): the sign of the slack between #InAll(u)
// and the requirement that applies to u (g(u) inside the alliance, f(u)
// outside), clamped to {-1, 0, 1}.
func (a *FGA) realScr(v core.InnerView) int {
	need := a.f(v)
	if fgaOf(v.Self()).Col {
		need = a.g(v)
	}
	return score(a.inAll(v), need)
}

// score clamps the slack in-need to {-1, 0, 1}.
func score(in, need int) int {
	switch {
	case in < need:
		return -1
	case in == need:
		return 0
	default:
		return 1
	}
}

// pCanQuit is P_canQuit(u) ≡ col_u ∧ #InAll(u) ≥ f(u) ∧ (∀v ∈ N(u), scr_v = 1).
func (a *FGA) pCanQuit(v core.InnerView) bool {
	if !fgaOf(v.Self()).Col || a.inAll(v) < a.f(v) {
		return false
	}
	return v.AllNeighbors(func(s sim.State) bool { return fgaOf(s).Scr == 1 })
}

// pToQuit is P_toQuit(u) ≡ P_canQuit(u) ∧ (∀v ∈ N[u], ptr_v = u): u has the
// full approval of its closed neighbourhood to leave the alliance.
func (a *FGA) pToQuit(v core.InnerView) bool {
	if !a.pCanQuit(v) {
		return false
	}
	id := v.ID()
	if fgaOf(v.Self()).Ptr != id {
		return false
	}
	return v.AllNeighbors(func(s sim.State) bool { return fgaOf(s).Ptr == id })
}

// bestPtr is the macro bestPtr(u), evaluated with the given values of the
// process's own scr and canQ variables (upd(u) recomputes them before
// assigning the pointer, so callers pass either the current or the freshly
// computed values):
//
//	if ∀v ∈ N[u], ¬canQ_v return ⊥;
//	let b be the member of N[u] with canQ of smallest identifier;
//	if b = u return u;
//	if scr_u ≤ 0 return ⊥; otherwise return b.
//
// Faithfulness note: the paper's macro returns ⊥ whenever scr_u ≤ 0, before
// looking at the candidates. That literal version deadlocks in a corner case
// the proof of Theorem 8 overlooks: a member m with #InAll(m) = g(m) (so
// realScr(m) = 0) whose removal keeps the alliance valid can never approve
// itself, so rule_Clr(m) never fires and the terminal alliance is not
// 1-minimal. Approving oneself is safe regardless of one's own score — a
// process leaving the alliance does not reduce its own #InAll — so the
// self-candidate is exempted from the score guard. The score guard is kept
// verbatim for neighbour candidates, which is what the closure of
// realScr(u) ≥ 0 (Lemma 22) relies on. See README.md, "Deviations from the
// paper".
func (a *FGA) bestPtr(v core.InnerView, selfScr int, selfCanQ bool) int {
	minCanQ := NoPointer
	for i := 0; i < v.Degree(); i++ {
		if fgaOf(v.Neighbor(i)).CanQ {
			minCanQ = minPointer(minCanQ, v.NeighborID(i))
		}
	}
	return pickPtr(v.ID(), minCanQ, selfScr, selfCanQ)
}

// pickPtr finishes bestPtr(u) for the process with identifier id, given
// minCanQ, the smallest identifier of a neighbour with canQ (⊥ when none).
func pickPtr(id, minCanQ, selfScr int, selfCanQ bool) int {
	best := minCanQ
	if selfCanQ {
		best = minPointer(best, id)
	}
	if best == NoPointer || best == id {
		return best
	}
	if selfScr <= 0 {
		return NoPointer
	}
	return best
}

// minPointer returns the smaller of two identifiers, where ⊥ counts as
// larger than every identifier.
func minPointer(p, id int) int {
	if p == NoPointer || id < p {
		return id
	}
	return p
}

// pUpdPtr is P_updPtr(u) ≡ ¬P_toQuit(u) ∧ ptr_u ≠ bestPtr(u), evaluated on
// the current variable values.
func (a *FGA) pUpdPtr(v core.InnerView) bool {
	if a.pToQuit(v) {
		return false
	}
	self := fgaOf(v.Self())
	return self.Ptr != a.bestPtr(v, self.Scr, self.CanQ)
}

// colOfPointer resolves ptr within the closed neighbourhood of the view and
// returns the col variable of the pointed process. found is false when the
// pointer is ⊥ or does not name any member of N[u] (which can only happen in
// corrupted configurations).
func (a *FGA) colOfPointer(v core.InnerView, ptr int) (col, found bool) {
	if ptr == NoPointer {
		return false, false
	}
	if v.ID() == ptr {
		return fgaOf(v.Self()).Col, true
	}
	for i := 0; i < v.Degree(); i++ {
		if v.NeighborID(i) == ptr {
			return fgaOf(v.Neighbor(i)).Col, true
		}
	}
	return false, false
}

// ICorrect implements core.Resettable:
//
//	P_ICorrect(u) ≡ realScr(u) ≥ 0 ∧
//	                [(scr_u = realScr(u) = 1) ∨ ptr_u = ⊥ ∨
//	                 (ptr_u = u ∧ col_u) ∨
//	                 (ptr_u ≠ ⊥ ∧ scr_u = 1 ∧ ¬col_{ptr_u})]
//
// The third disjunct (self-approval by an alliance member) is the companion
// of the bestPtr deviation documented above: a member that approves itself
// never loses an alliance neighbour in the same step (that neighbour would
// need ptr_u to point at it), so the state is locally consistent even when
// scr_u < 1. The remaining disjuncts are the paper's.
func (a *FGA) ICorrect(v core.InnerView) bool {
	rs := a.realScr(v)
	if rs < 0 {
		return false
	}
	self := fgaOf(v.Self())
	if self.Scr == 1 && rs == 1 {
		return true
	}
	if self.Ptr == NoPointer {
		return true
	}
	if self.Ptr == v.ID() && self.Col {
		return true
	}
	if self.Scr != 1 {
		return false
	}
	col, found := a.colOfPointer(v, self.Ptr)
	return found && !col
}

// Decide implements core.Resettable. One scan of the neighbours gathers what
// P_ICorrect(u) and the four guards share: #InAll(u), whether every scr_v is
// 1 and every ptr_v is u, the smallest identifier with canQ, and the col of
// the process ptr_u names. realScr(u) and P_canQuit(u) are then computed
// once, and the guards are tried in rule order.
func (a *FGA) Decide(v core.InnerView) (correct bool, rule int) {
	self := fgaOf(v.Self())
	id := v.ID()
	in, allScr1, allPtrU, minCanQ := 0, true, true, NoPointer
	ptrFound := self.Ptr != NoPointer && self.Ptr == id
	ptrCol := ptrFound && self.Col
	for i, deg := 0, v.Degree(); i < deg; i++ {
		nb, nid := fgaOf(v.Neighbor(i)), v.NeighborID(i)
		if nb.Col {
			in++
		}
		allScr1 = allScr1 && nb.Scr == 1
		allPtrU = allPtrU && nb.Ptr == id
		if nb.CanQ {
			minCanQ = minPointer(minCanQ, nid)
		}
		if !ptrFound && self.Ptr != NoPointer && nid == self.Ptr {
			ptrFound, ptrCol = true, nb.Col
		}
	}
	f := a.f(v)
	need := f
	if self.Col {
		need = a.g(v)
	}
	rs := score(in, need)
	correct = rs >= 0 && (self.Scr == 1 && rs == 1 || self.Ptr == NoPointer ||
		self.Ptr == id && self.Col || self.Scr == 1 && ptrFound && !ptrCol)
	if !correct || !v.Clean() {
		return correct, -1
	}
	canQuit := self.Col && in >= f && allScr1
	switch {
	case canQuit && self.Ptr == id && allPtrU:
		return true, 0 // rule_Clr: P_toQuit(u)
	case self.Ptr != pickPtr(id, minCanQ, self.Scr, self.CanQ):
		if self.Ptr != NoPointer {
			return true, 1 // rule_P1
		}
		return true, 2 // rule_P2
	case self.Scr != rs || self.CanQ != canQuit:
		return true, 3 // rule_Q
	}
	return true, -1
}

// cmpVar applies the macro cmpVar(u) to the given state: scr := realScr(u),
// canQ := P_canQuit(u). Both macros read the neighbours' current values and
// the given col value of the process itself.
func (a *FGA) cmpVar(v core.InnerView, s FGAState) FGAState {
	in := a.inAll(v)
	need := a.f(v)
	if s.Col {
		need = a.g(v)
	}
	s.Scr = score(in, need)
	canQuit := s.Col && in >= a.f(v) &&
		v.AllNeighbors(func(ns sim.State) bool { return fgaOf(ns).Scr == 1 })
	s.CanQ = canQuit
	return s
}

// upd applies the macro upd(u): cmpVar(u) followed by ptr := bestPtr(u),
// where bestPtr reads the freshly computed scr and canQ of the process.
func (a *FGA) upd(v core.InnerView, s FGAState) FGAState {
	s = a.cmpVar(v, s)
	s.Ptr = a.bestPtr(v, s.Scr, s.CanQ)
	return s
}

// Names of the four FGA rules.
const (
	// RuleClr is rule_Clr(u): the process leaves the alliance.
	RuleClr = "Clr"
	// RuleP1 is rule_P1(u): first half of an approval switch (ptr := ⊥).
	RuleP1 = "P1"
	// RuleP2 is rule_P2(u): second half of an approval switch (ptr := bestPtr).
	RuleP2 = "P2"
	// RuleQ is rule_Q(u): refresh scr and canQ after a neighbourhood change.
	RuleQ = "Q"
)

// InnerRules implements core.Resettable. P_ICorrect(u) appears in every guard
// of Algorithm 3; it is added by the composition (and by core.Standalone), so
// the rules below only carry P_Clean(u) and the rule-specific part.
func (a *FGA) InnerRules() []core.InnerRule {
	return []core.InnerRule{
		{
			// rule_Clr(u): P_toQuit(u) → col_u := false; upd(u);
			Name: RuleClr,
			Guard: func(v core.InnerView) bool {
				return v.Clean() && a.pToQuit(v)
			},
			Action: func(v core.InnerView) sim.State {
				s := fgaOf(v.Self())
				s.Col = false
				return a.upd(v, s)
			},
		},
		{
			// rule_P1(u): P_updPtr(u) ∧ ptr_u ≠ ⊥ → ptr_u := ⊥; cmpVar(u);
			Name: RuleP1,
			Guard: func(v core.InnerView) bool {
				return v.Clean() && a.pUpdPtr(v) && fgaOf(v.Self()).Ptr != NoPointer
			},
			Action: func(v core.InnerView) sim.State {
				s := fgaOf(v.Self())
				s.Ptr = NoPointer
				return a.cmpVar(v, s)
			},
		},
		{
			// rule_P2(u): P_updPtr(u) ∧ ptr_u = ⊥ → upd(u);
			Name: RuleP2,
			Guard: func(v core.InnerView) bool {
				return v.Clean() && a.pUpdPtr(v) && fgaOf(v.Self()).Ptr == NoPointer
			},
			Action: func(v core.InnerView) sim.State {
				return a.upd(v, fgaOf(v.Self()))
			},
		},
		{
			// rule_Q(u): ¬P_toQuit(u) ∧ ¬P_updPtr(u) ∧
			//            (scr_u ≠ realScr(u) ∨ canQ_u ≠ P_canQuit(u))
			//            → cmpVar(u); if realScr(u) ≤ 0 then ptr_u := ⊥;
			Name: RuleQ,
			Guard: func(v core.InnerView) bool {
				if !v.Clean() || a.pToQuit(v) || a.pUpdPtr(v) {
					return false
				}
				self := fgaOf(v.Self())
				return self.Scr != a.realScr(v) || self.CanQ != a.pCanQuit(v)
			},
			Action: func(v core.InnerView) sim.State {
				s := a.cmpVar(v, fgaOf(v.Self()))
				if a.realScr(v) <= 0 {
					s.Ptr = NoPointer
				}
				return s
			},
		},
	}
}

// InnerStateCount implements core.InnerEnumerable: every combination of
// col ∈ {false, true}, scr ∈ {-1, 0, 1}, canQ ∈ {false, true} and
// ptr ∈ {⊥} ∪ {identifiers of N[u]}, that is 12·(deg(u)+2) states.
func (a *FGA) InnerStateCount(u int, net *sim.Network) int {
	return 12 * (net.Degree(u) + 2)
}

// InnerStateAt implements core.InnerEnumerable: col outermost, then scr,
// then canQ, the pointer (⊥, own id, neighbours in local-label order)
// innermost.
func (a *FGA) InnerStateAt(u int, net *sim.Network, i int) sim.State {
	span := net.Degree(u) + 2
	rest, pi := i/span, i%span
	s := FGAState{CanQ: rest%2 == 1}
	rest /= 2
	s.Scr = rest%3 - 1
	s.Col = rest/3 == 1
	switch pi {
	case 0:
		s.Ptr = NoPointer
	case 1:
		s.Ptr = net.ID(u)
	default:
		s.Ptr = net.ID(net.Neighbor(u, pi-2))
	}
	return s
}

// NewSelfStabilizing returns the self-stabilizing composition FGA ∘ SDR for
// the given specification (Theorem 13).
func NewSelfStabilizing(spec Spec) *core.Composed {
	return core.Compose(NewFGA(spec))
}

// Members returns the sorted list of processes whose col variable is true in
// the configuration. It accepts configurations of both FGA alone (FGAState)
// and FGA ∘ SDR (core.ComposedState wrapping FGAState).
func Members(c *sim.Configuration) []int {
	var members []int
	for u := 0; u < c.N(); u++ {
		s := c.State(u)
		if cs, ok := s.(core.ComposedState); ok {
			s = cs.Inner
		}
		if fgaOf(s).Col {
			members = append(members, u)
		}
	}
	return members
}
