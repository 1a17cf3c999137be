package unison

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"sdr/internal/core"
	"sdr/internal/graph"
	"sdr/internal/sim"
)

func TestNewValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(1) must panic: the period must be at least 2")
		}
	}()
	New(1)
}

func TestClockStateBasics(t *testing.T) {
	s := ClockState{C: 3}
	if !s.Equal(ClockState{C: 3}) {
		t.Error("equal clocks must be equal")
	}
	if s.Equal(ClockState{C: 4}) {
		t.Error("different clocks must not be equal")
	}
	if s.Equal(BPVState{R: 3}) {
		t.Error("a clock state must not equal a foreign state type")
	}
	if s.String() != "c=3" {
		t.Errorf("String = %q, want c=3", s.String())
	}
}

func TestResettableContract(t *testing.T) {
	u := New(7)
	net := sim.NewNetwork(graph.Ring(5))
	if u.Name() == "" {
		t.Error("name must not be empty")
	}
	if !u.IsReset(0, net, u.ResetState(0, net)) {
		t.Error("the reset state must satisfy P_reset (Requirement 2e)")
	}
	if !u.IsReset(0, net, u.InitialInner(0, net)) {
		t.Error("γ_init is the all-zero configuration, which is the reset state")
	}
	if u.IsReset(0, net, ClockState{C: 3}) {
		t.Error("a non-zero clock is not the reset state")
	}
	if err := core.CheckRequirements(u, net); err != nil {
		t.Errorf("Algorithm U must satisfy the composition requirements: %v", err)
	}
	if got := u.InnerStateCount(0, net); got != 7 {
		t.Errorf("InnerStateCount = %d, want K=7", got)
	}
}

func TestCircularDistance(t *testing.T) {
	cases := []struct {
		a, b, k, want int
	}{
		{0, 0, 10, 0},
		{0, 1, 10, 1},
		{1, 0, 10, 1},
		{0, 9, 10, 1},
		{9, 0, 10, 1},
		{2, 7, 10, 5},
		{7, 2, 10, 5},
		{3, 3, 4, 0},
	}
	for _, c := range cases {
		if got := CircularDistance(c.a, c.b, c.k); got != c.want {
			t.Errorf("CircularDistance(%d,%d,%d) = %d, want %d", c.a, c.b, c.k, got, c.want)
		}
	}
}

func TestQuickCircularDistanceProperties(t *testing.T) {
	// Symmetry, range and the triangle property of the circular distance.
	f := func(a, b uint8, kRaw uint8) bool {
		k := int(kRaw%20) + 2
		x, y := int(a)%k, int(b)%k
		d := CircularDistance(x, y, k)
		if d != CircularDistance(y, x, k) {
			return false
		}
		if d < 0 || d > k/2 {
			return false
		}
		return (d == 0) == (x == y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestICorrectAndGuards(t *testing.T) {
	u := New(6)
	g := graph.Path(3)
	net := sim.NewNetwork(g)

	mk := func(values ...int) *sim.Configuration {
		states := make([]sim.State, len(values))
		for i, v := range values {
			states[i] = ClockState{C: v}
		}
		return sim.NewConfiguration(states)
	}
	iview := func(c *sim.Configuration, p int) core.InnerView {
		return core.NewStandaloneView(net.View(c, p))
	}

	// Clocks 0-1-2: all correct; wrap-around 5-0-1 also correct.
	for _, cfg := range []*sim.Configuration{mk(0, 1, 2), mk(5, 0, 1)} {
		for p := 0; p < 3; p++ {
			if !u.ICorrect(iview(cfg, p)) {
				t.Errorf("process %d should be I-correct in %s", p, cfg)
			}
		}
	}
	// Clocks 0-2-2: process 0 and 1 disagree by 2.
	bad := mk(0, 2, 2)
	if u.ICorrect(iview(bad, 0)) || u.ICorrect(iview(bad, 1)) {
		t.Error("a drift of 2 must be detected as incorrect")
	}
	if !u.ICorrect(iview(bad, 2)) {
		t.Error("process 2 only sees its neighbour at distance 0 and is correct")
	}

	// The tick guard: a process may tick when every neighbour is at its value
	// or one ahead.
	rules := u.InnerRules()
	if len(rules) != 1 || rules[0].Name != RuleTick {
		t.Fatalf("Algorithm U has one rule named %q", RuleTick)
	}
	tick := rules[0]
	cfg := mk(1, 1, 2)
	if !tick.Guard(iview(cfg, 0)) {
		t.Error("process 0 (neighbour at same value) should be allowed to tick")
	}
	if !tick.Guard(iview(cfg, 1)) {
		t.Error("process 1 (neighbours at 1 and 2) should be allowed to tick")
	}
	if tick.Guard(iview(cfg, 2)) {
		t.Error("process 2 (neighbour one behind) must wait")
	}
	next := tick.Action(iview(cfg, 1))
	if next.(ClockState).C != 2 {
		t.Errorf("tick increments the clock: got %v", next)
	}

	// Wrap-around: at K-1 with neighbours at K-1 or 0 the process ticks to 0.
	wrap := mk(5, 5, 0)
	if !tick.Guard(iview(wrap, 1)) {
		t.Error("process 1 should be allowed to tick across the wrap-around")
	}
	if got := tick.Action(iview(wrap, 1)).(ClockState).C; got != 0 {
		t.Errorf("ticking at K-1 wraps to 0, got %d", got)
	}

	// From 256 on the tick takes its box from core.Box: the same value.
	wide := New(1000).InnerRules()[0]
	for range 2 {
		if got := wide.Action(iview(mk(300, 300, 300), 1)); got != sim.State(ClockState{C: 301}) {
			t.Errorf("ticking at 300 gives %v, want c=301", got)
		}
	}
}

func TestStandaloneUnisonFromInitSatisfiesSpecification(t *testing.T) {
	// Theorem 5: starting from γ_init, Algorithm U alone satisfies safety
	// always and liveness (every clock keeps incrementing).
	topologies := []*graph.Graph{graph.Ring(6), graph.Path(5), graph.RandomConnected(7, 0.4, rand.New(rand.NewSource(2)))}
	for _, g := range topologies {
		u := New(DefaultPeriod(g.N()))
		alg := core.NewStandalone(u)
		net := sim.NewNetwork(g)
		safety := standaloneSafety(u, net)

		violations := 0
		ticks := make([]int, g.N())
		hook := func(info sim.StepInfo) {
			if !safety(info.After) {
				violations++
			}
			for i, p := range info.Activated {
				if info.Rules[i] == tickRule {
					ticks[p]++
				}
			}
		}
		daemon := sim.NewDistributedRandomDaemon(rand.New(rand.NewSource(5)), 0.5)
		eng := sim.NewEngine(net, alg, daemon)
		res := eng.Run(sim.InitialConfiguration(alg, net),
			sim.WithMaxSteps(60*g.N()),
			sim.WithStepHook(hook),
		)
		if violations > 0 {
			t.Errorf("n=%d: unison safety violated %d times", g.N(), violations)
		}
		if res.Terminated {
			t.Errorf("n=%d: Algorithm U must never terminate from γ_init (Lemma 18)", g.N())
		}
		if slices.Min(ticks) == 0 {
			t.Errorf("n=%d: some process never ticked in %d steps (liveness, Lemma 19)", g.N(), res.Steps)
		}
	}
}

func TestStandaloneUnisonFreezesWhenIncorrect(t *testing.T) {
	// Property behind Lemma 20: started from a configuration that is not
	// correct everywhere, the standalone algorithm eventually freezes (the
	// incorrect processes never move, and the wave of allowed moves dies out
	// within 3D per process).
	g := graph.Path(6)
	u := New(8)
	alg := core.NewStandalone(u)
	net := sim.NewNetwork(g)
	states := []sim.State{
		ClockState{C: 0}, ClockState{C: 4}, ClockState{C: 4},
		ClockState{C: 4}, ClockState{C: 4}, ClockState{C: 4},
	}
	start := sim.NewConfiguration(states)
	res := sim.NewEngine(net, alg, sim.SynchronousDaemon{}).Run(start, sim.WithMaxSteps(10_000))
	if !res.Terminated {
		t.Fatal("an incorrect standalone configuration must lead to a terminal (frozen) configuration")
	}
	if res.MaxMovesPerProcess > MaxStandaloneMovesPerProcess(g.Diameter()) {
		t.Errorf("a process moved %d times, exceeding the 3D bound of Lemma 20", res.MaxMovesPerProcess)
	}
	// The frozen processes adjacent to the fault never moved.
	if res.MovesPerProcess[0] != 0 || res.MovesPerProcess[1] != 0 {
		t.Errorf("the processes adjacent to the inconsistency must never move, got %v", res.MovesPerProcess)
	}
}

func TestMaxDrift(t *testing.T) {
	u := New(10)
	g := graph.Ring(4)
	net := sim.NewNetwork(g)
	states := make([]sim.State, 4)
	// Ring edges {0,1},{1,2},{2,3},{3,0}; clocks 0-2-1-1 put a drift of 2 on
	// edge {0,1} and a drift of 1 elsewhere.
	for i, v := range []int{0, 2, 1, 1} {
		states[i] = core.ComposedState{SDR: core.CleanSDRState(), Inner: ClockState{C: v}}
	}
	cfg := sim.NewConfiguration(states)
	if got := MaxDrift(u, net, cfg); got != 2 {
		t.Errorf("MaxDrift = %d, want 2", got)
	}
	states[1] = core.ComposedState{SDR: core.CleanSDRState(), Inner: ClockState{C: 1}}
	if got := MaxDrift(u, net, sim.NewConfiguration(states)); got != 1 {
		t.Errorf("MaxDrift = %d, want 1", got)
	}
}

func TestDefaultPeriod(t *testing.T) {
	if DefaultPeriod(10) != 11 {
		t.Errorf("DefaultPeriod(10) = %d, want 11", DefaultPeriod(10))
	}
}

func TestBoundsFormulas(t *testing.T) {
	if MaxStabilizationRounds(10) != 30 {
		t.Errorf("MaxStabilizationRounds(10) = %d, want 30", MaxStabilizationRounds(10))
	}
	// (3D+3)n² + (3D+1)(n-1) + 1 with n=4, D=2: 9·16 + 7·3 + 1 = 166.
	if got := MaxStabilizationMoves(4, 2); got != 166 {
		t.Errorf("MaxStabilizationMoves(4,2) = %d, want 166", got)
	}
	if MaxStandaloneMovesPerProcess(5) != 15 {
		t.Errorf("MaxStandaloneMovesPerProcess(5) = %d, want 15", MaxStandaloneMovesPerProcess(5))
	}
}

// TestOkMatchesModularForm checks P_Ok's difference form against its modular
// definition for every pair of clocks in [0, K), the only values a clock
// takes, for periods from 2 up.
func TestOkMatchesModularForm(t *testing.T) {
	for k := 2; k <= 7; k++ {
		u := New(k)
		for cu := 0; cu < k; cu++ {
			for cv := 0; cv < k; cv++ {
				want := cv == cu || cv == mod(cu+1, k) || cv == mod(cu-1, k)
				if got := u.ok(cu, cv); got != want {
					t.Fatalf("K=%d: ok(%d, %d) = %v, want %v", k, cu, cv, got, want)
				}
			}
		}
	}
}
