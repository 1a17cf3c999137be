package core

import (
	"math/rand"
	"testing"

	"sdr/internal/graph"
	"sdr/internal/sim"
)

func TestResetParents(t *testing.T) {
	net := pathNetwork(t)
	inner := newTestInner(5)

	// 0:RB@0 ← 1:RB@1 ← 2:RF@2 — process 1's parent is 0, process 2's parent
	// is 1 (same status or RB), process 0 has no parent.
	cfg := composedConfig(t,
		[]SDRState{{St: StatusRB, D: 0}, {St: StatusRB, D: 1}, {St: StatusRF, D: 2}},
		[]int{0, 0, 0})
	if got := ResetParents(inner, net, cfg, 0); len(got) != 0 {
		t.Errorf("process 0 should have no reset parent, got %v", got)
	}
	if got := ResetParents(inner, net, cfg, 1); len(got) != 1 || got[0] != 0 {
		t.Errorf("ResetParents(1) = %v, want [0]", got)
	}
	if got := ResetParents(inner, net, cfg, 2); len(got) != 1 || got[0] != 1 {
		t.Errorf("ResetParents(2) = %v, want [1]", got)
	}

	// A process whose inner state is not reset has no parent (P_reset is part
	// of the definition).
	cfg2 := composedConfig(t,
		[]SDRState{{St: StatusRB, D: 0}, {St: StatusRB, D: 1}, CleanSDRState()},
		[]int{0, 3, 0})
	if got := ResetParents(inner, net, cfg2, 1); len(got) != 0 {
		t.Errorf("a non-reset process has no reset parent, got %v", got)
	}

	// An RF process is not the parent of an RB process (status condition).
	cfg3 := composedConfig(t,
		[]SDRState{{St: StatusRF, D: 0}, {St: StatusRB, D: 1}, CleanSDRState()},
		[]int{0, 0, 0})
	if got := ResetParents(inner, net, cfg3, 1); len(got) != 0 {
		t.Errorf("an RF process cannot be the parent of an RB process, got %v", got)
	}
}

func TestMaxBranchDepth(t *testing.T) {
	inner := newTestInner(5)
	g := graph.Path(4)
	net := sim.NewNetwork(g)
	cfg := sim.NewConfiguration([]sim.State{
		ComposedState{SDR: SDRState{St: StatusRB, D: 0}, Inner: testInnerState{V: 0}},
		ComposedState{SDR: SDRState{St: StatusRB, D: 1}, Inner: testInnerState{V: 0}},
		ComposedState{SDR: SDRState{St: StatusRB, D: 2}, Inner: testInnerState{V: 0}},
		ComposedState{SDR: CleanSDRState(), Inner: testInnerState{V: 0}},
	})
	depth := MaxBranchDepth(inner, net, cfg)
	want := []int{0, 1, 2, 0}
	for u, w := range want {
		if depth[u] != w {
			t.Errorf("depth[%d] = %d, want %d", u, depth[u], w)
		}
	}
}

func TestSegmentLanguage(t *testing.T) {
	cases := []struct {
		rules []string
		ok    bool
	}{
		{nil, true},
		{[]string{RuleC}, true},
		{[]string{RuleRB}, true},
		{[]string{RuleR, RuleRF}, true},
		{[]string{RuleC, RuleRB, RuleRF}, true},
		{[]string{RuleC, RuleR, RuleRF}, true},
		{[]string{RuleRF, RuleC}, false},
		{[]string{RuleRB, RuleRB}, false},
		{[]string{RuleC, RuleC}, false},
		{[]string{RuleRB, RuleR}, false},
		{[]string{RuleRF, RuleRF}, false},
		{[]string{RuleC, RuleRB, RuleRF, RuleC}, false},
	}
	for _, c := range cases {
		if got := matchesSegmentLanguage(c.rules); got != c.ok {
			t.Errorf("matchesSegmentLanguage(%v) = %v, want %v", c.rules, got, c.ok)
		}
	}
}

func TestObserverOnExecution(t *testing.T) {
	// Run the composition from random configurations and check the observer
	// validates the structural theorems: no alive-root creation (Theorem 3),
	// at most n+1 segments (Remark 5), at most 3n+3 SDR moves per process
	// (Corollary 4), and the per-segment rule language (Theorem 4).
	inner := newTestInner(3)
	comp := Compose(inner)
	g := graph.Ring(6)
	net := sim.NewNetwork(g)
	states := sim.StateSpace(comp, 0, net)
	rng := rand.New(rand.NewSource(11))

	for trial := 0; trial < 30; trial++ {
		cfgStates := make([]sim.State, net.N())
		for u := range cfgStates {
			cfgStates[u] = states[rng.Intn(len(states))]
		}
		start := sim.NewConfiguration(cfgStates)

		observer := NewObserver(inner, net)
		observer.Prime(start)
		daemon := sim.NewDistributedRandomDaemon(rand.New(rand.NewSource(int64(trial))), 0.5)
		eng := sim.NewEngine(net, comp, daemon)
		eng.Run(start, sim.WithMaxSteps(50_000), sim.WithStepHook(observer.Hook()))

		if v := observer.AliveRootViolations(); v != 0 {
			t.Fatalf("trial %d: %d alive roots were created (Theorem 3)", trial, v)
		}
		if s := observer.Segments(); s > MaxSegments(net.N()) {
			t.Fatalf("trial %d: %d segments exceed the n+1 bound (Remark 5)", trial, s)
		}
		if m := observer.MaxSDRMoves(); m > MaxSDRMovesPerProcess(net.N()) {
			t.Fatalf("trial %d: a process executed %d SDR moves, exceeding 3n+3 (Corollary 4)", trial, m)
		}
		if lv := observer.LanguageViolation(); lv != "" {
			t.Fatalf("trial %d: Theorem 4 language violated: %s", trial, lv)
		}
		if got, n := len(observer.SDRMovesPerProcess()), net.N(); got != n {
			t.Fatalf("SDRMovesPerProcess has length %d, want %d", got, n)
		}
	}
}

func TestBounds(t *testing.T) {
	if MaxResetRounds(10) != 30 {
		t.Errorf("MaxResetRounds(10) = %d, want 30", MaxResetRounds(10))
	}
	if MaxSDRMovesPerProcess(10) != 33 {
		t.Errorf("MaxSDRMovesPerProcess(10) = %d, want 33", MaxSDRMovesPerProcess(10))
	}
	if MaxSegments(10) != 11 {
		t.Errorf("MaxSegments(10) = %d, want 11", MaxSegments(10))
	}
}

func TestIsSDRRuleAndInnerRuleName(t *testing.T) {
	for _, name := range []string{RuleRB, RuleRF, RuleC, RuleR} {
		if !IsSDRRule(name) {
			t.Errorf("%s should be recognised as an SDR rule", name)
		}
	}
	if IsSDRRule("tick") || IsSDRRule(InnerRuleName("tick")) {
		t.Error("inner rules must not be recognised as SDR rules")
	}
	if InnerRuleName("tick") != "I:tick" {
		t.Errorf("InnerRuleName = %q, want I:tick", InnerRuleName("tick"))
	}
}
