package core

import (
	"math/rand"
	"slices"
	"testing"

	"sdr/internal/graph"
	"sdr/internal/sim"
)

// TestSegmentLanguage runs the Observer's Theorem 4 automaton and the
// oracle's word matcher over the same rule sequences.
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
	index := map[string]int{RuleRB: ruleRBIndex, RuleRF: ruleRFIndex, RuleC: ruleCIndex, RuleR: ruleRIndex}
	net := sim.NewNetwork(graph.Path(2))
	for _, c := range cases {
		if got := matchesSegmentLanguage(c.rules); got != c.ok {
			t.Errorf("matchesSegmentLanguage(%v) = %v, want %v", c.rules, got, c.ok)
		}
		o := NewObserver(newTestInner(1), net)
		for _, r := range c.rules {
			o.advance(0, index[r])
		}
		if got := o.LanguageViolation() == ""; got != c.ok {
			t.Errorf("automaton over %v accepts = %v, want %v (%q)", c.rules, got, c.ok, o.LanguageViolation())
		}
	}

	// Ending a segment resets every automaton.
	o := NewObserver(newTestInner(1), net)
	o.advance(1, ruleRFIndex)
	o.segment++
	o.advance(1, ruleCIndex)
	if lv := o.LanguageViolation(); lv != "" {
		t.Errorf("rule_RF then rule_C in the next segment was reported: %s", lv)
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
		oracle := NewReferenceObserver(comp, net)
		oracle.Prime(start)
		daemon := sim.NewDistributedRandomDaemon(rand.New(rand.NewSource(int64(trial))), 0.5)
		eng := sim.NewEngine(net, comp, daemon)
		eng.Run(start, sim.WithMaxSteps(50_000), sim.WithStepHook(observer.Hook()), sim.WithStepHook(oracle.Hook()))

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
		if observer.Segments() != oracle.Segments() || !slices.Equal(observer.SDRMovesPerProcess(), oracle.SDRMovesPerProcess()) {
			t.Fatalf("trial %d: observer saw %d segments and SDR moves %v, the oracle %d and %v", trial,
				observer.Segments(), observer.SDRMovesPerProcess(), oracle.Segments(), oracle.SDRMovesPerProcess())
		}
	}
}

// stepInjector corrupts the states of a few random processes at each of the
// given steps.
type stepInjector struct {
	at    []int
	alg   sim.Enumerable
	rng   *rand.Rand
	fired int
}

func (j *stepInjector) Inject(p sim.InjectionPoint) *sim.Injection {
	if j.fired == len(j.at) || p.Step < j.at[j.fired] {
		return nil
	}
	j.fired++
	inj := &sim.Injection{Label: "corrupt"}
	for k := 0; k < 3; k++ {
		u := j.rng.Intn(p.Net.N())
		inj.SetStates = append(inj.SetStates, sim.StateChange{Process: u, State: j.alg.StateAt(u, p.Net, j.rng.Intn(j.alg.StateCount(u, p.Net)))})
	}
	return inj
}

func (j *stepInjector) Done() bool { return j.fired == len(j.at) }

// TestObserverEvaluatedOnTouchedOnly pins the observer's work: it evaluates
// the alive-root predicate at every process when primed, again at every
// process at the first step after an injected event, and otherwise once per
// step at each process of the closed neighbourhoods of the activated ones.
// A scan of all n processes per step fails it, and so does an observer that
// does not re-prime after an event.
func TestObserverEvaluatedOnTouchedOnly(t *testing.T) {
	inner := newTestInner(3)
	comp := Compose(inner)
	net := sim.NewNetwork(graph.Torus(6, 6))
	n := net.N()
	rng := rand.New(rand.NewSource(5))
	states := make([]sim.State, n)
	for u := range states {
		states[u] = comp.StateAt(u, net, rng.Intn(comp.StateCount(u, net)))
	}
	start := sim.NewConfiguration(states)

	o := NewObserver(inner, net)
	calls := 0
	alive := o.aliveRoot
	o.aliveRoot = func(v sim.View) bool { calls++; return alive(v) }
	o.Prime(start)
	if calls != n {
		t.Fatalf("priming evaluated %d processes, want n = %d", calls, n)
	}
	calls = 0

	events, reprimed := 0, 0
	check := func(info sim.StepInfo) {
		touched := make(map[int]bool)
		for _, u := range info.Activated {
			touched[u] = true
			for i := 0; i < net.Degree(u); i++ {
				touched[net.Neighbor(u, i)] = true
			}
		}
		want := len(touched)
		if info.Events != events {
			want += n
			events = info.Events
			reprimed++
		}
		if calls != want {
			t.Fatalf("step %d: %d alive-root evaluations, want %d", info.Step, calls, want)
		}
		calls = 0
	}
	daemon := sim.NewDistributedRandomDaemon(rand.New(rand.NewSource(6)), 0.5)
	inj := &stepInjector{at: []int{30, 60}, alg: comp, rng: rand.New(rand.NewSource(7))}
	res := sim.NewEngine(net, comp, daemon).Run(start, sim.WithMaxSteps(5_000),
		sim.WithInjector(inj), sim.WithStepHook(o.Hook()), sim.WithStepHook(check))
	if len(res.Events) != 2 || reprimed != 2 {
		t.Fatalf("%d events fired and the observer re-primed %d times, want 2 and 2", len(res.Events), reprimed)
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
