package alliance

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"sdr/internal/core"
	"sdr/internal/graph"
	"sdr/internal/sim"
)

func TestNewFGAValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewFGA with nil requirement functions must panic")
		}
	}()
	NewFGA(Spec{Name: "broken"})
}

func TestFGAStateBasics(t *testing.T) {
	s := FGAState{Col: true, Scr: 1, CanQ: true, Ptr: 4}
	if !s.Equal(FGAState{Col: true, Scr: 1, CanQ: true, Ptr: 4}) {
		t.Error("states with equal variables must be equal")
	}
	if s.Equal(FGAState{Col: true, Scr: 1, CanQ: true, Ptr: NoPointer}) {
		t.Error("states differing in the pointer must not be equal")
	}
	if s.Equal(ResetFGAState()) {
		t.Error("distinct states must not be equal")
	}
	if !strings.Contains(s.String(), "p=4") || !strings.Contains(ResetFGAState().String(), "p=⊥") {
		t.Error("the rendering must show the pointer, with ⊥ for no pointer")
	}
}

func TestFGAResettableContract(t *testing.T) {
	g := graph.Complete(4)
	net := sim.NewNetwork(g)
	fga := NewFGA(GlobalPowerfulAlliance())
	if fga.Spec().Name != GlobalPowerfulAlliance().Name {
		t.Error("Spec() must return the constructed spec")
	}
	if err := fga.Validate(g); err != nil {
		t.Errorf("the powerful alliance is solvable on K4: %v", err)
	}
	if !strings.Contains(fga.Name(), "FGA") {
		t.Errorf("name %q should mention FGA", fga.Name())
	}
	if !fga.IsReset(0, net, fga.ResetState(0, net)) || !fga.IsReset(0, net, fga.InitialInner(0, net)) {
		t.Error("reset and initial states must satisfy P_reset (Requirement 2e)")
	}
	for _, bad := range []FGAState{
		{Col: false, Scr: 1, CanQ: true, Ptr: NoPointer},
		{Col: true, Scr: 0, CanQ: true, Ptr: NoPointer},
		{Col: true, Scr: 1, CanQ: false, Ptr: NoPointer},
		{Col: true, Scr: 1, CanQ: true, Ptr: 2},
	} {
		if fga.IsReset(0, net, bad) {
			t.Errorf("%v must not satisfy P_reset", bad)
		}
	}
	if err := core.CheckRequirements(fga, net); err != nil {
		t.Errorf("FGA must satisfy the composition requirements on K4: %v", err)
	}
}

func TestFGARequirementsOnAllSpecsAndTopologies(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	topologies := []*graph.Graph{graph.Complete(5), graph.Ring(6), graph.RandomConnected(8, 0.6, rng)}
	for _, g := range topologies {
		net := sim.NewNetwork(g)
		for _, spec := range StandardSpecs() {
			if spec.Validate(g) != nil {
				continue
			}
			if err := core.CheckRequirements(NewFGA(spec), net); err != nil {
				t.Errorf("spec %s on n=%d: %v", spec.Name, g.N(), err)
			}
		}
	}
}

func TestFGAEnumerateInner(t *testing.T) {
	g := graph.Star(4) // centre 0 has degree 3, leaves have degree 1
	net := sim.NewNetwork(g)
	fga := NewFGA(DominatingSet())
	// 2 col × 3 scr × 2 canQ × (2 + degree) pointers.
	if got, want := fga.InnerStateCount(0, net), 12*(2+3); got != want {
		t.Errorf("centre enumerates %d states, want %d", got, want)
	}
	if got, want := fga.InnerStateCount(1, net), 12*(2+1); got != want {
		t.Errorf("leaf enumerates %d states, want %d", got, want)
	}
}

// fgaConfig builds a plain (standalone) FGA configuration.
func fgaConfig(states ...FGAState) *sim.Configuration {
	out := make([]sim.State, len(states))
	for i, s := range states {
		out[i] = s
	}
	return sim.NewConfiguration(out)
}

func TestICorrectCases(t *testing.T) {
	// Path 0-1-2 with the (1,1)-alliance.
	g := graph.Path(3)
	net := sim.NewNetwork(g)
	fga := NewFGA(Constant("test", 1, 1))
	view := func(c *sim.Configuration, u int) core.InnerView {
		return core.NewStandaloneView(net.View(c, u))
	}
	member := func(scr int, ptr int) FGAState { return FGAState{Col: true, Scr: scr, CanQ: true, Ptr: ptr} }

	// All members, everyone consistent: correct.
	all := fgaConfig(member(1, NoPointer), member(1, NoPointer), member(1, NoPointer))
	for u := 0; u < 3; u++ {
		if !fga.ICorrect(view(all, u)) {
			t.Errorf("process %d should be I-correct in the all-member configuration", u)
		}
	}

	// Node 0 outside with no member neighbour at all: realScr(0) < 0.
	starved := fgaConfig(
		FGAState{Col: false, Scr: 1, CanQ: false, Ptr: NoPointer},
		FGAState{Col: false, Scr: 1, CanQ: false, Ptr: NoPointer},
		member(1, NoPointer))
	if fga.ICorrect(view(starved, 0)) {
		t.Error("a non-member with no member neighbour must be I-incorrect (realScr < 0)")
	}

	// Pointer at a member neighbour while scr ≠ realScr = 0: none of the
	// disjuncts of P_ICorrect holds, so the state must be flagged.
	cfg := fgaConfig(member(1, 1), member(0, NoPointer), member(1, NoPointer))
	if fga.ICorrect(view(cfg, 0)) {
		t.Error("approving a member neighbour while one's own slack is 0 must be I-incorrect")
	}

	// Self-approval by a member is accepted (documented deviation).
	selfApprove := fgaConfig(
		FGAState{Col: true, Scr: 0, CanQ: true, Ptr: net.ID(0)},
		member(1, NoPointer), member(1, NoPointer))
	if !fga.ICorrect(view(selfApprove, 0)) {
		t.Error("a member approving itself must be I-correct")
	}

	// The middle process points at a neighbour that has already left the
	// alliance, with scr=1 still set: the third disjunct accepts this
	// transient state (realScr(1) = 0 because only node 0 is still a member).
	left := fgaConfig(
		member(1, NoPointer),
		FGAState{Col: true, Scr: 1, CanQ: false, Ptr: net.ID(2)},
		FGAState{Col: false, Scr: 1, CanQ: false, Ptr: NoPointer})
	if !fga.ICorrect(view(left, 1)) {
		t.Error("pointing at a departed process with scr=1 is a legitimate transient state")
	}

	// Pointer at an identifier outside the closed neighbourhood: incorrect
	// (unless scr = realScr = 1 holds, which it does not here).
	dangling := fgaConfig(
		FGAState{Col: true, Scr: 0, CanQ: true, Ptr: 99},
		member(1, NoPointer), member(1, NoPointer))
	if fga.ICorrect(view(dangling, 0)) {
		t.Error("a dangling pointer with scr ≠ 1 must be I-incorrect")
	}
}

func TestStandaloneFGATerminatesIn1MinimalAlliance(t *testing.T) {
	// Theorems 8 and 9 (with Corollary 10): from γ_init, FGA alone terminates
	// within the O(Δ·m) move bound and 5n+4 rounds, and the output is a
	// 1-minimal (f,g)-alliance. Swept over specs, topologies and daemons.
	rng := rand.New(rand.NewSource(77))
	topologies := map[string]*graph.Graph{
		"ring9":     graph.Ring(9),
		"complete6": graph.Complete(6),
		"grid3x3":   graph.Grid(3, 3),
		"random10":  graph.RandomConnected(10, 0.45, rng),
		"star7":     graph.Star(7),
	}
	for name, g := range topologies {
		for _, spec := range StandardSpecs() {
			if spec.Validate(g) != nil {
				continue
			}
			for _, df := range sim.StandardDaemonFactories() {
				if df.Name == "greedy-adversarial" {
					continue // quadratic lookahead, covered elsewhere
				}
				net := sim.NewNetwork(g)
				alg := core.NewStandalone(NewFGA(spec))
				res := sim.NewEngine(net, alg, df.New(int64(g.N()))).Run(
					sim.InitialConfiguration(alg, net), sim.WithMaxSteps(400_000))
				if !res.Terminated {
					t.Fatalf("%s/%s/%s: FGA did not terminate", name, spec.Name, df.Name)
				}
				members := Members(res.Final)
				if err := Explain1Minimal(g, spec, members); err != nil {
					t.Errorf("%s/%s/%s: %v", name, spec.Name, df.Name, err)
				}
				if res.Moves > MaxStandaloneMoves(g.N(), g.M(), g.MaxDegree()) {
					t.Errorf("%s/%s/%s: %d moves exceed the O(Δ·m) bound %d",
						name, spec.Name, df.Name, res.Moves, MaxStandaloneMoves(g.N(), g.M(), g.MaxDegree()))
				}
				if res.Rounds > MaxStandaloneRounds(g.N()) {
					t.Errorf("%s/%s/%s: %d rounds exceed the 5n+4 bound %d",
						name, spec.Name, df.Name, res.Rounds, MaxStandaloneRounds(g.N()))
				}
			}
		}
	}
}

func TestRemovalsAreLocallyCentral(t *testing.T) {
	// The approval pointers make removals locally central: in every step, at
	// most one process of any closed neighbourhood leaves the alliance.
	rng := rand.New(rand.NewSource(13))
	g := graph.RandomConnected(12, 0.4, rng)
	net := sim.NewNetwork(g)
	alg := core.NewStandalone(NewFGA(GlobalOffensiveAlliance()))
	violations := 0
	hook := func(info sim.StepInfo) {
		var leavers []int
		for i, u := range info.Activated {
			if alg.Rules()[info.Rules[i]].Name == RuleClr {
				leavers = append(leavers, u)
			}
		}
		for i := 0; i < len(leavers); i++ {
			for j := i + 1; j < len(leavers); j++ {
				a, b := leavers[i], leavers[j]
				if a == b || g.HasEdge(a, b) {
					violations++
				}
				for k := 0; k < g.Degree(a); k++ {
					if w := g.Neighbor(a, k); g.HasEdge(w, b) || w == b {
						violations++
					}
				}
			}
		}
	}
	res := sim.NewEngine(net, alg, sim.SynchronousDaemon{}).Run(
		sim.InitialConfiguration(alg, net), sim.WithMaxSteps(100_000), sim.WithStepHook(hook))
	if !res.Terminated {
		t.Fatal("FGA did not terminate under the synchronous daemon")
	}
	if violations > 0 {
		t.Errorf("%d pairs of removals shared a closed neighbourhood", violations)
	}
}

func TestMembershipNeverGrows(t *testing.T) {
	// The col variable only moves from true to false in FGA (fact (1) of the
	// termination proof): the alliance shrinks monotonically in standalone
	// executions.
	g := graph.Complete(7)
	net := sim.NewNetwork(g)
	alg := core.NewStandalone(NewFGA(KTupleDomination(2)))
	prev := len(Members(sim.InitialConfiguration(alg, net)))
	grew := false
	hook := func(info sim.StepInfo) {
		cur := len(Members(info.After))
		if cur > prev {
			grew = true
		}
		prev = cur
	}
	daemon := sim.NewDistributedRandomDaemon(rand.New(rand.NewSource(2)), 0.6)
	sim.NewEngine(net, alg, daemon).Run(sim.InitialConfiguration(alg, net),
		sim.WithMaxSteps(100_000), sim.WithStepHook(hook))
	if grew {
		t.Error("the alliance grew during a standalone execution of FGA")
	}
}

func TestMembersAcceptsComposedAndPlainStates(t *testing.T) {
	plain := fgaConfig(
		FGAState{Col: true, Scr: 1, CanQ: true, Ptr: NoPointer},
		FGAState{Col: false, Scr: 1, CanQ: false, Ptr: NoPointer})
	if got := Members(plain); len(got) != 1 || got[0] != 0 {
		t.Errorf("Members(plain) = %v, want [0]", got)
	}
	composed := sim.NewConfiguration([]sim.State{
		core.ComposedState{SDR: core.CleanSDRState(), Inner: FGAState{Col: false, Scr: 1, CanQ: false, Ptr: NoPointer}},
		core.ComposedState{SDR: core.CleanSDRState(), Inner: FGAState{Col: true, Scr: 1, CanQ: true, Ptr: NoPointer}},
	})
	if got := Members(composed); len(got) != 1 || got[0] != 1 {
		t.Errorf("Members(composed) = %v, want [1]", got)
	}
}

func TestBoundsFormulas(t *testing.T) {
	if MaxStandaloneMovesPerProcess(3, 5) != 8*3*5+18*3+24 {
		t.Error("MaxStandaloneMovesPerProcess formula mismatch")
	}
	if MaxStandaloneMoves(10, 20, 5) != 16*5*20+36*20+24*10 {
		t.Error("MaxStandaloneMoves formula mismatch")
	}
	if MaxStandaloneRounds(10) != 54 {
		t.Error("MaxStandaloneRounds formula mismatch")
	}
	if MaxStabilizationMoves(10, 20, 5) != 11*(16*20*5+36*20+27*10) {
		t.Error("MaxStabilizationMoves formula mismatch")
	}
	if MaxStabilizationRounds(10) != 30+54 {
		t.Error("MaxStabilizationRounds formula mismatch")
	}
}

func TestQuickStandaloneFGAOnRandomGraphs(t *testing.T) {
	// Property: on random connected graphs, FGA from γ_init terminates in a
	// 1-minimal dominating set (and respects the move bound).
	property := func(seed int64, rawN uint8) bool {
		n := int(rawN%10) + 4
		rng := rand.New(rand.NewSource(seed))
		g := graph.RandomConnected(n, 0.4, rng)
		spec := DominatingSet()
		net := sim.NewNetwork(g)
		alg := core.NewStandalone(NewFGA(spec))
		res := sim.NewEngine(net, alg, sim.NewDistributedRandomDaemon(rng, 0.5)).Run(
			sim.InitialConfiguration(alg, net), sim.WithMaxSteps(300_000))
		if !res.Terminated {
			return false
		}
		if res.Moves > MaxStandaloneMoves(g.N(), g.M(), g.MaxDegree()) {
			return false
		}
		return Is1Minimal(g, spec, Members(res.Final))
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
