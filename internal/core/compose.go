package core

import (
	"fmt"

	"sdr/internal/sim"
)

// Names of the four SDR rules, as they appear in traces and move statistics.
const (
	RuleRB = "SDR:RB"
	RuleRF = "SDR:RF"
	RuleC  = "SDR:C"
	RuleR  = "SDR:R"
)

// sdrRuleNames gives the name of each SDR rule by its composed rule index.
var sdrRuleNames = [firstInnerRule]string{ruleRBIndex: RuleRB, ruleRFIndex: RuleRF, ruleCIndex: RuleC, ruleRIndex: RuleR}

// innerRulePrefix prefixes the names of the inner algorithm's rules.
const innerRulePrefix = "I:"

// InnerRuleName returns the composed trace name of an inner rule.
func InnerRuleName(name string) string { return innerRulePrefix + name }

// InnerRuleIndex returns the index in Composed.Rules() of the inner
// algorithm's i-th rule (in Standalone.Rules() it is i).
func InnerRuleIndex(i int) int { return firstInnerRule + i }

// composeOptions carries the optional knobs of Compose.
type composeOptions struct {
	uncooperative bool
}

// ComposeOption customises the composition.
type ComposeOption func(*composeOptions)

// WithUncooperativeResets is the ablation A1 of the experiment suite
// (bench.RunA1NoCooperation, registry entry unison-uncoop): the rule_RB action
// makes the joining process a root of its own reset (distance 0) instead of
// hooking under the neighbouring reset's DAG (compute macro). The resulting
// algorithm loses the coordination that the paper's move-complexity analysis
// relies on; benchmarks use it to quantify the value of cooperation.
func WithUncooperativeResets() ComposeOption {
	return func(o *composeOptions) { o.uncooperative = true }
}

// Composed is the composition I ∘ SDR (Section 2.5): the distributed
// algorithm whose local program is the union of the rules of SDR and of the
// input algorithm I, over the product state. It implements sim.Algorithm.
// Its rule actions return shared boxes from a hash-consing table, so a move
// to a state the table holds allocates nothing.
type Composed struct {
	inner Resettable
	enum  InnerEnumerable // nil when the inner algorithm does not enumerate
	opts  composeOptions
	rules []sim.Rule
}

var (
	_ sim.Algorithm   = (*Composed)(nil)
	_ sim.Enumerable  = (*Composed)(nil)
	_ sim.RuleIndexer = (*Composed)(nil)
)

// Indices of the four SDR rules in the composed rule set; inner rule i sits
// at firstInnerRule+i.
const (
	ruleRBIndex = iota
	ruleRFIndex
	ruleCIndex
	ruleRIndex
	firstInnerRule
)

// Compose builds I ∘ SDR for the given input algorithm.
func Compose(inner Resettable, opts ...ComposeOption) *Composed {
	if inner == nil {
		panic("core: Compose requires a non-nil inner algorithm")
	}
	var o composeOptions
	for _, opt := range opts {
		opt(&o)
	}
	enum, _ := inner.(InnerEnumerable)
	c := &Composed{inner: inner, enum: enum, opts: o}
	c.rules = c.buildRules()
	return c
}

// Inner returns the composed input algorithm.
func (c *Composed) Inner() Resettable { return c.inner }

// UsesIdentifiers implements sim.IdentifierUser: the SDR rules themselves
// are anonymous, but their guards call into the inner algorithm's predicates
// (P_ICorrect, P_reset), so the composition reads identifiers exactly when
// the inner algorithm declares it does — and conservatively when it declares
// nothing.
func (c *Composed) UsesIdentifiers() bool { return resettableUsesIdentifiers(c.inner) }

// resettableUsesIdentifiers reads the optional sim.IdentifierUser
// declaration of an inner algorithm, defaulting to true.
func resettableUsesIdentifiers(inner Resettable) bool {
	if iu, ok := inner.(sim.IdentifierUser); ok {
		return iu.UsesIdentifiers()
	}
	return true
}

// Name implements sim.Algorithm.
func (c *Composed) Name() string {
	suffix := ""
	if c.opts.uncooperative {
		suffix = "-uncoop"
	}
	return fmt.Sprintf("%s∘SDR%s", c.inner.Name(), suffix)
}

// Rules implements sim.Algorithm. SDR's four rules come first, followed by
// the wrapped rules of the inner algorithm; by Remark 2 and Lemma 5 of the
// paper all rules are pairwise mutually exclusive, so the order is
// irrelevant to the semantics.
func (c *Composed) Rules() []sim.Rule { return c.rules }

// InitialState implements sim.Algorithm: status C, distance 0, and the inner
// algorithm's pre-defined initial state.
func (c *Composed) InitialState(u int, net *sim.Network) sim.State {
	return ComposedState{SDR: CleanSDRState(), Inner: c.inner.InitialInner(u, net)}
}

// StateCount implements sim.Enumerable: the composed space is the product of
// the SDR block — one (C, 0) slot plus statuses RB and RF with distances in
// [0, n] each — and the inner space, or empty when the inner algorithm does
// not enumerate. Larger distances behave like n for reachability on the
// small networks of exhaustive checks, and the distance is meaningless at
// status C.
func (c *Composed) StateCount(u int, net *sim.Network) int {
	if c.enum == nil {
		return 0
	}
	return (2*(net.N()+1) + 1) * c.enum.InnerStateCount(u, net)
}

// StateAt implements sim.Enumerable: statuses C, RB, RF outermost,
// distances next, inner states innermost.
func (c *Composed) StateAt(u int, net *sim.Network, i int) sim.State {
	k := c.enum.InnerStateCount(u, net)
	block, j := i/k, i%k
	sdr := SDRState{St: StatusC, D: 0}
	switch n := net.N(); {
	case block == 0:
		// status C enumerates the single distance 0.
	case block <= n+1:
		sdr = SDRState{St: StatusRB, D: block - 1}
	default:
		sdr = SDRState{St: StatusRF, D: block - n - 2}
	}
	return ComposedState{SDR: sdr, Inner: c.enum.InnerStateAt(u, net, j)}
}

// buildRules assembles the composed rule set. Every action returns its
// state through the box table; inner states are immutable values, so rule_RF
// and rule_C keep the process's inner state as it is.
func (c *Composed) buildRules() []sim.Rule {
	inner := c.inner
	uncoop := c.opts.uncooperative

	sdrRules := []sim.Rule{
		{
			// rule_RB(u): P_RB(u) → compute(u); reset(u);
			Name:  RuleRB,
			Guard: func(v sim.View) bool { return PRB(v) },
			Action: func(v sim.View) sim.State {
				sdr := SDRState{St: StatusRB, D: 0}
				if !uncoop {
					sdr.D = minBroadcastNeighborDistance(v) + 1
				}
				return Box(ComposedState{SDR: sdr, Inner: inner.ResetState(v.Process(), v.Network())})
			},
		},
		{
			// rule_RF(u): P_RF(u) → st_u := RF;
			Name:  RuleRF,
			Guard: func(v sim.View) bool { return PRF(inner, v) },
			Action: func(v sim.View) sim.State {
				cs := mustComposed(v.Self())
				return Box(ComposedState{SDR: SDRState{St: StatusRF, D: cs.SDR.D}, Inner: cs.Inner})
			},
		},
		{
			// rule_C(u): P_C(u) → st_u := C;
			Name:  RuleC,
			Guard: func(v sim.View) bool { return PC(inner, v) },
			Action: func(v sim.View) sim.State {
				cs := mustComposed(v.Self())
				return Box(ComposedState{SDR: SDRState{St: StatusC, D: cs.SDR.D}, Inner: cs.Inner})
			},
		},
		{
			// rule_R(u): P_Up(u) → beRoot(u); reset(u);
			Name:  RuleR,
			Guard: func(v sim.View) bool { return PUp(inner, v) },
			Action: func(v sim.View) sim.State {
				return Box(ComposedState{
					SDR:   SDRState{St: StatusRB, D: 0},
					Inner: inner.ResetState(v.Process(), v.Network()),
				})
			},
		},
	}

	rules := sdrRules
	for _, ir := range inner.InnerRules() {
		ir := ir // capture
		rules = append(rules, sim.Rule{
			Name: InnerRuleName(ir.Name),
			Guard: func(v sim.View) bool {
				// Requirement 2c: I is disabled whenever ¬P_Clean(u) or
				// ¬P_ICorrect(u) holds.
				if !PClean(v) || !PICorrect(inner, v) {
					return false
				}
				return ir.Guard(NewInnerView(v))
			},
			Action: func(v sim.View) sim.State {
				cs := mustComposed(v.Self())
				return Box(ComposedState{SDR: cs.SDR, Inner: ir.Action(NewInnerView(v))})
			},
		})
	}
	return rules
}

// FirstEnabled implements sim.RuleIndexer: it returns the index of the first
// rule whose Guard holds at the viewed process, deciding the overlapping
// predicates of Algorithm 1 in one pass over the closed neighbourhood
// instead of re-deriving them for every rule. It branches on st_u:
//
//   - C: rule_RF and rule_C are disabled. One scan of the neighbours gives
//     P_RB (rule_RB) and decides P_R1 and P_Clean; rule_R is enabled by
//     P_R1 or ¬P_ICorrect. The inner algorithm's Decide then gives
//     P_ICorrect and its first enabled rule in one more scan.
//   - RB, RF and any other status: rule_RB and the inner rules are
//     disabled and P_Up reduces to P_R2 ≡ ¬P_reset(u), which also falsifies
//     P_RF and P_C. Otherwise one scan decides P_RF (status RB) or P_C
//     (status RF).
func (c *Composed) FirstEnabled(v sim.View) int {
	self := mustComposed(v.Self())
	if self.SDR.St != StatusC {
		if !c.inner.IsReset(v.Process(), v.Network(), self.Inner) {
			return ruleRIndex
		}
		switch self.SDR.St {
		case StatusRB:
			if c.feedbackReady(v, self.SDR.D) {
				return ruleRFIndex
			}
		case StatusRF:
			if c.cleanReady(v, self.SDR.D) {
				return ruleCIndex
			}
		}
		return -1
	}
	anyRF, allC := false, true
	for i, deg := 0, v.Degree(); i < deg; i++ {
		switch SDRPart(v.Neighbor(i)).St {
		case StatusC:
		case StatusRB:
			return ruleRBIndex
		case StatusRF:
			anyRF, allC = true, false
		default:
			allC = false
		}
	}
	if anyRF && !c.inner.IsReset(v.Process(), v.Network(), self.Inner) {
		return ruleRIndex
	}
	// allC (with st_u = C) is P_Clean(u), which the inner guards may ask
	// the view for again; the composed inner rules require it on top of
	// the inner guards (Requirement 2c).
	correct, rule := c.inner.Decide(InnerView{view: v, composed: true, clean: allC})
	switch {
	case !correct:
		return ruleRIndex
	case allC && rule >= 0:
		return firstInnerRule + rule
	}
	return -1
}

// feedbackReady is the neighbour part of P_RF(u) for a process at status RB
// with distance d: ∀v ∈ N(u), (st_v = RB ∧ d_v ≤ d) ∨ (st_v = RF ∧ P_reset(v)).
func (c *Composed) feedbackReady(v sim.View, d int) bool {
	net := v.Network()
	for i, deg := 0, v.Degree(); i < deg; i++ {
		nb := mustComposed(v.Neighbor(i))
		switch nb.SDR.St {
		case StatusRB:
			if nb.SDR.D > d {
				return false
			}
		case StatusRF:
			if !c.inner.IsReset(net.Neighbor(v.Process(), i), net, nb.Inner) {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// cleanReady is the neighbour part of P_C(u) for a process at status RF
// with distance d: ∀v ∈ N(u), P_reset(v) ∧ ((st_v = RF ∧ d_v ≥ d) ∨ st_v = C).
func (c *Composed) cleanReady(v sim.View, d int) bool {
	net := v.Network()
	for i, deg := 0, v.Degree(); i < deg; i++ {
		nb := mustComposed(v.Neighbor(i))
		switch nb.SDR.St {
		case StatusRF:
			if nb.SDR.D < d {
				return false
			}
		case StatusC:
		default:
			return false
		}
		if !c.inner.IsReset(net.Neighbor(v.Process(), i), net, nb.Inner) {
			return false
		}
	}
	return true
}

// minBroadcastNeighborDistance returns the minimum d_v over neighbours v with
// st_v = RB. It panics when no such neighbour exists, which cannot happen
// when P_RB(u) holds (the guard of rule_RB).
func minBroadcastNeighborDistance(v sim.View) int {
	best := -1
	for i := 0; i < v.Degree(); i++ {
		nb := SDRPart(v.Neighbor(i))
		if nb.St == StatusRB && (best < 0 || nb.D < best) {
			best = nb.D
		}
	}
	if best < 0 {
		panic("core: compute(u) evaluated with no broadcasting neighbour")
	}
	return best
}

// Standalone wraps a Resettable input algorithm I as a plain sim.Algorithm,
// i.e. the non-self-stabilizing algorithm the paper analyses from its
// pre-defined initial configuration (Sections 5.4 and 6.4). Inner guards are
// strengthened with P_ICorrect as in the paper's formal codes; P_Clean is
// vacuously true without SDR.
type Standalone struct {
	inner Resettable
	enum  InnerEnumerable // nil when the inner algorithm does not enumerate
	rules []sim.Rule
}

var (
	_ sim.Algorithm   = (*Standalone)(nil)
	_ sim.Enumerable  = (*Standalone)(nil)
	_ sim.RuleIndexer = (*Standalone)(nil)
)

// NewStandalone wraps inner as a standalone algorithm.
func NewStandalone(inner Resettable) *Standalone {
	if inner == nil {
		panic("core: NewStandalone requires a non-nil inner algorithm")
	}
	enum, _ := inner.(InnerEnumerable)
	s := &Standalone{inner: inner, enum: enum}
	for _, ir := range inner.InnerRules() {
		ir := ir
		s.rules = append(s.rules, sim.Rule{
			Name: ir.Name,
			Guard: func(v sim.View) bool {
				iv := NewStandaloneView(v)
				return inner.ICorrect(iv) && ir.Guard(iv)
			},
			Action: func(v sim.View) sim.State {
				return ir.Action(NewStandaloneView(v))
			},
		})
	}
	return s
}

// Inner returns the wrapped input algorithm.
func (s *Standalone) Inner() Resettable { return s.inner }

// FirstEnabled implements sim.RuleIndexer: rule i is enabled exactly when
// P_ICorrect(u) holds and inner rule i is the first whose guard holds, which
// the inner algorithm's Decide gives in one pass.
func (s *Standalone) FirstEnabled(v sim.View) int {
	if correct, rule := s.inner.Decide(NewStandaloneView(v)); correct {
		return rule
	}
	return -1
}

// UsesIdentifiers implements sim.IdentifierUser, forwarding the inner
// algorithm's declaration (conservatively true when it makes none).
func (s *Standalone) UsesIdentifiers() bool { return resettableUsesIdentifiers(s.inner) }

// Name implements sim.Algorithm.
func (s *Standalone) Name() string { return s.inner.Name() }

// Rules implements sim.Algorithm.
func (s *Standalone) Rules() []sim.Rule { return s.rules }

// InitialState implements sim.Algorithm.
func (s *Standalone) InitialState(u int, net *sim.Network) sim.State {
	return s.inner.InitialInner(u, net)
}

// StateCount implements sim.Enumerable: the inner space, or empty when the
// inner algorithm does not enumerate.
func (s *Standalone) StateCount(u int, net *sim.Network) int {
	if s.enum == nil {
		return 0
	}
	return s.enum.InnerStateCount(u, net)
}

// StateAt implements sim.Enumerable.
func (s *Standalone) StateAt(u int, net *sim.Network, i int) sim.State {
	return s.enum.InnerStateAt(u, net, i)
}
