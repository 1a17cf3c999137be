package alliance

import (
	"testing"

	"sdr/internal/core"
	"sdr/internal/graph"
	"sdr/internal/sim"
)

// ruleByName returns the inner rule with the given name.
func ruleByName(t *testing.T, a *FGA, name string) core.InnerRule {
	t.Helper()
	for _, r := range a.InnerRules() {
		if r.Name == name {
			return r
		}
	}
	t.Fatalf("rule %s not found", name)
	return core.InnerRule{}
}

// pathView returns the standalone inner view of process u on a 3-path.
func pathView(net *sim.Network, c *sim.Configuration, u int) core.InnerView {
	return core.NewStandaloneView(net.View(c, u))
}

func TestRuleClrSemantics(t *testing.T) {
	// Path 0-1-2, dominating set (f=1, g=0). Everyone is a member with scr=1
	// and the whole closed neighbourhood of process 1 approves process 1...
	// except that bestPtr prefers the smallest identifier, which is 0. Build
	// the approval for 0 instead and check rule_Clr fires exactly there.
	g := graph.Path(3)
	net := sim.NewNetwork(g)
	fga := NewFGA(DominatingSet())
	clr := ruleByName(t, fga, RuleClr)

	cfg := fgaConfig(
		FGAState{Col: true, Scr: 1, CanQ: true, Ptr: 0},
		FGAState{Col: true, Scr: 1, CanQ: true, Ptr: 0},
		FGAState{Col: true, Scr: 1, CanQ: true, Ptr: 1},
	)
	if !clr.Guard(pathView(net, cfg, 0)) {
		t.Fatal("rule_Clr should be enabled at process 0 (full approval of N[0])")
	}
	if clr.Guard(pathView(net, cfg, 1)) {
		t.Error("rule_Clr must not be enabled at process 1: its own pointer names 0")
	}
	next := clr.Action(pathView(net, cfg, 0)).(FGAState)
	if next.Col {
		t.Error("rule_Clr must clear col")
	}
	if next.CanQ {
		t.Error("after leaving, the process can no longer quit (canQ must be recomputed to false)")
	}
	if next.Scr != 0 {
		// Process 0 now outside: #InAll = 1 = f(0) → realScr = 0.
		t.Errorf("after leaving, scr should be realScr = 0, got %d", next.Scr)
	}
}

func TestRuleP1P2TwoStepSwitch(t *testing.T) {
	// The approval switch happens in two atomic steps: P1 clears the pointer,
	// P2 points at the new best candidate.
	g := graph.Path(3)
	net := sim.NewNetwork(g)
	fga := NewFGA(DominatingSet())
	p1 := ruleByName(t, fga, RuleP1)
	p2 := ruleByName(t, fga, RuleP2)

	// Process 1 points at 2 (stale) while the best candidate in N[1] is 0
	// (smallest identifier with canQ).
	cfg := fgaConfig(
		FGAState{Col: true, Scr: 1, CanQ: true, Ptr: NoPointer},
		FGAState{Col: true, Scr: 1, CanQ: true, Ptr: 2},
		FGAState{Col: true, Scr: 1, CanQ: true, Ptr: NoPointer},
	)
	if !p1.Guard(pathView(net, cfg, 1)) {
		t.Fatal("rule_P1 should be enabled: the pointer is stale and not ⊥")
	}
	if p2.Guard(pathView(net, cfg, 1)) {
		t.Error("rule_P2 must wait until the pointer has been cleared")
	}
	mid := p1.Action(pathView(net, cfg, 1)).(FGAState)
	if mid.Ptr != NoPointer {
		t.Fatalf("rule_P1 must clear the pointer, got %v", mid)
	}

	cfg2 := fgaConfig(
		FGAState{Col: true, Scr: 1, CanQ: true, Ptr: NoPointer},
		mid,
		FGAState{Col: true, Scr: 1, CanQ: true, Ptr: NoPointer},
	)
	if p1.Guard(pathView(net, cfg2, 1)) {
		t.Error("rule_P1 must be disabled once the pointer is ⊥")
	}
	if !p2.Guard(pathView(net, cfg2, 1)) {
		t.Fatal("rule_P2 should now be enabled")
	}
	after := p2.Action(pathView(net, cfg2, 1)).(FGAState)
	if after.Ptr != 0 {
		t.Errorf("rule_P2 must point at the smallest-identifier candidate 0, got %v", after)
	}
}

func TestRuleQRefreshesScoreAndClearsPointer(t *testing.T) {
	// Path 0-1-2 with the (1,1)-alliance: process 1's neighbour 2 has left,
	// so realScr(1) drops to 0; rule_Q refreshes scr/canQ and clears the
	// pointer because the slack is gone.
	g := graph.Path(3)
	net := sim.NewNetwork(g)
	fga := NewFGA(Constant("test", 1, 1))
	q := ruleByName(t, fga, RuleQ)

	// Process 1 still points at the best candidate (node 0, the smallest
	// identifier with canQ), so P_updPtr is false; but its score is stale
	// (realScr dropped to 0 after node 2 left), so rule_Q must fire and, in
	// doing so, clear the pointer.
	cfg := fgaConfig(
		FGAState{Col: true, Scr: 1, CanQ: true, Ptr: NoPointer},
		FGAState{Col: true, Scr: 1, CanQ: true, Ptr: 0},
		FGAState{Col: false, Scr: 0, CanQ: false, Ptr: NoPointer},
	)
	if !q.Guard(pathView(net, cfg, 1)) {
		t.Fatal("rule_Q should be enabled at process 1 (stale scr after the departure)")
	}
	next := q.Action(pathView(net, cfg, 1)).(FGAState)
	if next.Scr != 0 {
		t.Errorf("rule_Q must refresh scr to realScr = 0, got %d", next.Scr)
	}
	if next.Ptr != NoPointer {
		t.Errorf("rule_Q must clear the pointer when realScr ≤ 0, got %v", next)
	}
	if next.CanQ {
		t.Error("rule_Q must refresh canQ: neighbour 2's scr is no longer 1")
	}
}

// TestDeviationRegression encodes the counterexample that motivated the
// documented deviation from the paper's bestPtr macro (README.md,
// "Deviations from the paper"): a degree-1 member m with
// f(m) = g(m) = #InAll(m) = 1 whose only neighbour approves it. With the
// literal macro the configuration is terminal and not 1-minimal; with the
// corrected macro m approves itself, is removed, and the terminal alliance
// is 1-minimal.
func TestDeviationRegression(t *testing.T) {
	// Star centre 0 with leaves 1, 2, 3 under the global powerful alliance:
	// leaves have degree 1, so f = g = 1 for them.
	g := graph.Star(4)
	spec := GlobalPowerfulAlliance()
	if err := spec.Validate(g); err != nil {
		t.Fatalf("the powerful alliance is solvable on a star: %v", err)
	}
	net := sim.NewNetwork(g)
	alg := core.NewStandalone(NewFGA(spec))
	res := sim.NewEngine(net, alg, sim.SynchronousDaemon{}).Run(
		sim.InitialConfiguration(alg, net), sim.WithMaxSteps(50_000))
	if !res.Terminated {
		t.Fatal("FGA did not terminate")
	}
	members := Members(res.Final)
	if err := Explain1Minimal(g, spec, members); err != nil {
		t.Fatalf("terminal alliance %v is not 1-minimal: %v", members, err)
	}
	// The 1-minimal powerful alliance on a star keeps the centre and exactly
	// enough leaves; in particular at least one leaf must have been removed,
	// which is only possible through self-approval at score 0.
	if len(members) == g.N() {
		t.Error("no process ever left the alliance; the removal machinery did not run")
	}
}

func TestBestPtrScoreGuardStillProtectsNeighbours(t *testing.T) {
	// The correction only exempts the self-candidate: a process with scr ≤ 0
	// must still not approve a neighbour.
	g := graph.Path(3)
	net := sim.NewNetwork(g)
	fga := NewFGA(Constant("test", 1, 1))
	p2 := ruleByName(t, fga, RuleP2)

	// Process 1 has no slack (scr would be 0 after refresh) and its neighbour
	// 0 asks to leave (canQ). bestPtr(1) must stay ⊥, so P2 must be disabled.
	cfg := fgaConfig(
		FGAState{Col: true, Scr: 0, CanQ: true, Ptr: NoPointer},
		FGAState{Col: true, Scr: 0, CanQ: false, Ptr: NoPointer},
		FGAState{Col: false, Scr: 1, CanQ: false, Ptr: NoPointer},
	)
	if p2.Guard(pathView(net, cfg, 1)) {
		t.Error("a process without slack must not approve a neighbour")
	}
}
