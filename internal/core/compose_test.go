package core

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"sdr/internal/graph"
	"sdr/internal/sim"
)

func TestComposeRequiresInner(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Compose(nil) must panic")
		}
	}()
	Compose(nil)
}

func TestNewStandaloneRequiresInner(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewStandalone(nil) must panic")
		}
	}()
	NewStandalone(nil)
}

func TestComposedNameAndRules(t *testing.T) {
	inner := newTestInner(3)
	comp := Compose(inner)
	if !strings.Contains(comp.Name(), "test-inner") || !strings.Contains(comp.Name(), "SDR") {
		t.Errorf("composition name %q should mention both algorithms", comp.Name())
	}
	if got := Compose(inner, WithUncooperativeResets()).Name(); !strings.Contains(got, "uncoop") {
		t.Errorf("uncooperative composition name %q should say so", got)
	}
	rules := comp.Rules()
	if len(rules) != 4+len(inner.InnerRules()) {
		t.Fatalf("composition has %d rules, want %d", len(rules), 4+len(inner.InnerRules()))
	}
	names := make(map[string]bool)
	for _, r := range rules {
		names[r.Name] = true
	}
	for _, want := range []string{RuleRB, RuleRF, RuleC, RuleR, InnerRuleName("inc")} {
		if !names[want] {
			t.Errorf("composition is missing rule %s", want)
		}
	}
	if comp.Inner() != Resettable(inner) {
		t.Error("Inner() must return the composed input algorithm")
	}
}

func TestComposedInitialState(t *testing.T) {
	inner := newTestInner(3)
	comp := Compose(inner)
	net := pathNetwork(t)
	s := comp.InitialState(0, net)
	cs, ok := s.(ComposedState)
	if !ok {
		t.Fatalf("initial state has type %T, want ComposedState", s)
	}
	if cs.SDR != CleanSDRState() {
		t.Errorf("initial SDR state = %v, want clean", cs.SDR)
	}
	if !inner.IsReset(0, net, cs.Inner) {
		t.Errorf("initial inner state %v should be the pre-defined initial state", cs.Inner)
	}
}

func TestComposedEnumerateStates(t *testing.T) {
	inner := newTestInner(2)
	comp := Compose(inner)
	net := pathNetwork(t)
	states := sim.StateSpace(comp, 0, net)
	// 3 inner values × (1 C state + 2 statuses × (n+1) distances).
	want := 3 * (1 + 2*(net.N()+1))
	if len(states) != want {
		t.Fatalf("enumerated %d states, want %d", len(states), want)
	}
	seen := make(map[string]bool, len(states))
	for _, s := range states {
		if seen[s.String()] {
			t.Fatalf("duplicate enumerated state %s", s)
		}
		seen[s.String()] = true
	}
}

// TestComposedStateAtOrder pins the order of the composed and standalone
// state spaces, which seeded corruptions draw through: statuses C, RB, RF
// outermost (C with the single distance 0), distances next, inner states
// innermost, at every process.
func TestComposedStateAtOrder(t *testing.T) {
	inner := newTestInner(2)
	comp, standalone := Compose(inner), NewStandalone(inner)
	net := pathNetwork(t)
	n, k := net.N(), 3
	for u := 0; u < n; u++ {
		var want []sim.State
		sdrs := []SDRState{CleanSDRState()}
		for _, st := range []Status{StatusRB, StatusRF} {
			for d := 0; d <= n; d++ {
				sdrs = append(sdrs, SDRState{St: st, D: d})
			}
		}
		for _, sdr := range sdrs {
			for v := 0; v < k; v++ {
				want = append(want, ComposedState{SDR: sdr, Inner: testInnerState{V: v}})
			}
		}
		if got := sim.StateSpace(comp, u, net); !slices.EqualFunc(got, want, sim.State.Equal) {
			t.Fatalf("composed space of process %d = %v, want %v", u, got, want)
		}
		want = want[:0]
		for v := 0; v < k; v++ {
			want = append(want, testInnerState{V: v})
		}
		if got := sim.StateSpace(standalone, u, net); !slices.EqualFunc(got, want, sim.State.Equal) {
			t.Fatalf("standalone space of process %d = %v, want %v", u, got, want)
		}
	}
}

func TestMutualExclusionOfRules(t *testing.T) {
	// Lemma 5 and Remark 2: in every reachable-or-not configuration of the
	// composition, at most one rule is enabled per process. We sample the
	// state space broadly.
	inner := newTestInner(2)
	comp := Compose(inner)
	net := pathNetwork(t)
	states := sim.StateSpace(comp, 0, net)
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 3000; trial++ {
		cfg := sim.NewConfiguration([]sim.State{
			states[rng.Intn(len(states))],
			states[rng.Intn(len(states))],
			states[rng.Intn(len(states))],
		})
		for u := 0; u < net.N(); u++ {
			if enabled := sim.EnabledRules(comp, net, cfg, u); len(enabled) > 1 {
				var names []string
				for _, ri := range enabled {
					names = append(names, comp.Rules()[ri].Name)
				}
				t.Fatalf("process %d has %d enabled rules (%v) in %s", u, len(enabled), names, cfg)
			}
		}
	}
}

func TestInnerRulesGuardedByCleanAndICorrect(t *testing.T) {
	// Requirement 2c by construction: the inner rule must be disabled whenever
	// P_Clean or P_ICorrect fails, even if the inner guard itself would fire.
	inner := newTestInner(5)
	comp := Compose(inner)
	net := pathNetwork(t)

	// Process 0 could tick (local minimum) but its neighbour broadcasts.
	cfg := composedConfig(t,
		[]SDRState{CleanSDRState(), {St: StatusRB, D: 0}, CleanSDRState()},
		[]int{0, 0, 0})
	for _, ri := range sim.EnabledRules(comp, net, cfg, 0) {
		if comp.Rules()[ri].Name == InnerRuleName("inc") {
			t.Error("inner rule enabled although P_Clean(0) fails")
		}
	}

	// Process 2 is I-incorrect (difference 2 with neighbour 1): its inner rule
	// must be disabled even though all statuses are C.
	cfg2 := composedConfig(t, allClean(3), []int{0, 0, 2})
	for _, ri := range sim.EnabledRules(comp, net, cfg2, 2) {
		if comp.Rules()[ri].Name == InnerRuleName("inc") {
			t.Error("inner rule enabled although P_ICorrect(2) fails")
		}
	}
}

func TestRuleRBJoinsLowestBroadcastingNeighbor(t *testing.T) {
	inner := newTestInner(5)
	comp := Compose(inner)
	g := graph.Star(4) // centre 0 with leaves 1..3
	net := sim.NewNetwork(g)

	// Two broadcasting leaves at distances 4 and 2; the centre joins at
	// distance min(4,2)+1 = 3 and resets its inner state.
	cfg := sim.NewConfiguration([]sim.State{
		ComposedState{SDR: CleanSDRState(), Inner: testInnerState{V: 3}},
		ComposedState{SDR: SDRState{St: StatusRB, D: 4}, Inner: testInnerState{V: 0}},
		ComposedState{SDR: SDRState{St: StatusRB, D: 2}, Inner: testInnerState{V: 0}},
		ComposedState{SDR: CleanSDRState(), Inner: testInnerState{V: 0}},
	})
	v := net.View(cfg, 0)
	var rbRule *sim.Rule
	for i := range comp.Rules() {
		if comp.Rules()[i].Name == RuleRB {
			rbRule = &comp.Rules()[i]
		}
	}
	if rbRule == nil || !rbRule.Guard(v) {
		t.Fatal("rule_RB must be enabled at the centre")
	}
	next := rbRule.Action(v).(ComposedState)
	if next.SDR.St != StatusRB || next.SDR.D != 3 {
		t.Errorf("after rule_RB the centre is %v, want RB@3", next.SDR)
	}
	if !inner.IsReset(v.Process(), net, next.Inner) {
		t.Errorf("rule_RB must reset the inner state, got %v", next.Inner)
	}
}

func TestUncooperativeRuleRBBecomesRoot(t *testing.T) {
	inner := newTestInner(5)
	comp := Compose(inner, WithUncooperativeResets())
	net := pathNetwork(t)
	cfg := composedConfig(t,
		[]SDRState{CleanSDRState(), {St: StatusRB, D: 4}, CleanSDRState()},
		[]int{3, 0, 0})
	v := net.View(cfg, 0)
	for i := range comp.Rules() {
		r := comp.Rules()[i]
		if r.Name == RuleRB && r.Guard(v) {
			next := r.Action(v).(ComposedState)
			if next.SDR.D != 0 {
				t.Errorf("uncooperative rule_RB should take distance 0, got %d", next.SDR.D)
			}
			return
		}
	}
	t.Fatal("rule_RB not enabled at process 0")
}

func TestRuleRMakesRoot(t *testing.T) {
	inner := newTestInner(5)
	comp := Compose(inner)
	net := pathNetwork(t)
	// Process 2 is I-incorrect with no broadcasting neighbour.
	cfg := composedConfig(t, allClean(3), []int{0, 0, 2})
	v := net.View(cfg, 2)
	for i := range comp.Rules() {
		r := comp.Rules()[i]
		if r.Name == RuleR && r.Guard(v) {
			next := r.Action(v).(ComposedState)
			if next.SDR.St != StatusRB || next.SDR.D != 0 {
				t.Errorf("rule_R must install RB@0, got %v", next.SDR)
			}
			if !inner.IsReset(v.Process(), net, next.Inner) {
				t.Errorf("rule_R must reset the inner state, got %v", next.Inner)
			}
			return
		}
	}
	t.Fatal("rule_R not enabled at process 2")
}

func TestStandaloneBehaviour(t *testing.T) {
	inner := newTestInner(2)
	standalone := NewStandalone(inner)
	if standalone.Name() != inner.Name() {
		t.Errorf("standalone name %q should be the inner name", standalone.Name())
	}
	if standalone.Inner() != Resettable(inner) {
		t.Error("Inner() must return the wrapped algorithm")
	}
	net := pathNetwork(t)
	if got := len(sim.StateSpace(standalone, 0, net)); got != 3 {
		t.Errorf("standalone enumerates %d states, want 3", got)
	}

	// From γ_init the standalone test algorithm raises every value to the
	// limit and terminates.
	eng := sim.NewEngine(net, standalone, sim.SynchronousDaemon{})
	res := eng.Run(sim.InitialConfiguration(standalone, net))
	if !res.Terminated {
		t.Fatal("standalone run should terminate")
	}
	for u := 0; u < net.N(); u++ {
		if v := res.Final.State(u).(testInnerState).V; v != 2 {
			t.Errorf("process %d ended at %d, want 2", u, v)
		}
	}

	// Standalone guards include P_ICorrect: from an incorrect configuration
	// the affected processes stay frozen.
	bad := sim.NewConfiguration([]sim.State{
		testInnerState{V: 0}, testInnerState{V: 2}, testInnerState{V: 0},
	})
	if sim.Enabled(standalone, net, bad, 0) || sim.Enabled(standalone, net, bad, 1) {
		t.Error("I-incorrect processes must be disabled in the standalone wrapper")
	}
}

func TestCheckRequirements(t *testing.T) {
	net := pathNetwork(t)
	if err := CheckRequirements(newTestInner(3), net); err != nil {
		t.Errorf("the test inner algorithm satisfies the requirements: %v", err)
	}
	if err := CheckRequirements(badResetInner{newTestInner(3)}, net); err == nil {
		t.Error("an inner algorithm whose reset state is not P_reset must be rejected")
	}
}

// badResetInner violates Requirement 2e: its ResetState does not satisfy
// IsReset.
type badResetInner struct{ *testInner }

func (b badResetInner) ResetState(int, *sim.Network) sim.State { return testInnerState{V: 1} }
