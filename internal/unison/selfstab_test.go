package unison

import (
	"math/rand"
	"testing"
	"testing/quick"

	"sdr/internal/checker"
	"sdr/internal/core"
	"sdr/internal/faults"
	"sdr/internal/graph"
	"sdr/internal/sim"
)

// randomStart draws a configuration uniformly from an enumerable algorithm's
// state space.
func randomStart(t *testing.T, alg sim.Algorithm, net *sim.Network, rng *rand.Rand) *sim.Configuration {
	t.Helper()
	c, err := faults.RandomConfiguration(alg, net, rng)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// standaloneSafety is SafetyPredicate for plain (non-composed) ClockState
// configurations, used when running Algorithm U alone.
func standaloneSafety(u *Unison, net *sim.Network) sim.Predicate {
	return func(c *sim.Configuration) bool {
		for _, e := range net.Graph().Edges() {
			a := clockOf(c.State(e[0]))
			b := clockOf(c.State(e[1]))
			if CircularDistance(a, b, u.K()) > 1 {
				return false
			}
		}
		return true
	}
}

func TestNewSelfStabilizingBuildsComposition(t *testing.T) {
	comp := NewSelfStabilizing(9)
	if comp.Inner().Name() != New(9).Name() {
		t.Errorf("composition wraps %q, want %q", comp.Inner().Name(), New(9).Name())
	}
	uncoop := NewSelfStabilizingUncooperative(9)
	if uncoop.Name() == comp.Name() {
		t.Error("the uncooperative variant must be distinguishable by name")
	}
}

func TestSelfStabilizationRoundsAndMoves(t *testing.T) {
	// Theorems 6 and 7: from arbitrary configurations, U ∘ SDR reaches a
	// normal configuration within 3n rounds and within the explicit
	// (3D+3)n² + (3D+1)(n−1) + 1 move bound.
	topologies := []*graph.Graph{
		graph.Ring(8),
		graph.Star(8),
		graph.Grid(3, 3),
		graph.RandomConnected(10, 0.3, rand.New(rand.NewSource(4))),
	}
	for _, g := range topologies {
		n, d := g.N(), g.Diameter()
		u := New(DefaultPeriod(n))
		comp := core.Compose(u)
		net := sim.NewNetwork(g)
		normal := core.NormalPredicate(u)

		for trial := 0; trial < 4; trial++ {
			rng := rand.New(rand.NewSource(int64(100*n + trial)))
			start := randomStart(t, comp, net, rng)
			daemon := sim.NewDistributedRandomDaemon(rng, 0.5)
			res := sim.NewEngine(net, comp, daemon).Run(start,
				sim.WithMaxSteps(500_000),
				sim.WithLegitimate(normal),
				sim.WithStopWhenLegitimate(),
			)
			if !res.LegitimateReached {
				t.Fatalf("n=%d trial %d: did not stabilize", n, trial)
			}
			if res.StabilizationRounds > MaxStabilizationRounds(n) {
				t.Errorf("n=%d trial %d: %d rounds exceed the 3n bound %d",
					n, trial, res.StabilizationRounds, MaxStabilizationRounds(n))
			}
			if res.StabilizationMoves > MaxStabilizationMoves(n, d) {
				t.Errorf("n=%d trial %d: %d moves exceed the O(D·n²) bound %d",
					n, trial, res.StabilizationMoves, MaxStabilizationMoves(n, d))
			}
		}
	}
}

func TestSpecificationHoldsAfterStabilization(t *testing.T) {
	// After reaching a normal configuration, the unison specification holds:
	// safety in every subsequent configuration and liveness for every process.
	g := graph.Torus(3, 4)
	n := g.N()
	u := New(DefaultPeriod(n))
	comp := core.Compose(u)
	net := sim.NewNetwork(g)
	rng := rand.New(rand.NewSource(21))
	start := randomStart(t, comp, net, rng)
	daemon := sim.NewDistributedRandomDaemon(rng, 0.5)
	eng := sim.NewEngine(net, comp, daemon)

	res := eng.Run(start,
		sim.WithLegitimate(core.NormalPredicate(u)),
		sim.WithStopWhenLegitimate(),
	)
	if !res.LegitimateReached {
		t.Fatal("did not stabilize")
	}

	safety := SafetyPredicate(u, net)
	ticker := NewTickCounter(n)
	safeViolations := 0
	hook := func(info sim.StepInfo) {
		if !safety(info.After) {
			safeViolations++
		}
	}
	eng.Run(res.Final,
		sim.WithMaxSteps(80*n),
		sim.WithStepHook(hook),
		sim.WithStepHook(ticker.Hook()),
	)
	if safeViolations > 0 {
		t.Errorf("unison safety violated %d times after stabilization", safeViolations)
	}
	if ticker.Min() == 0 {
		t.Error("some process never ticked after stabilization (liveness)")
	}
	if d := MaxDrift(u, net, res.Final); d > 1 {
		t.Errorf("drift %d > 1 in a normal configuration", d)
	}
}

func TestNormalPredicateClosedForUnison(t *testing.T) {
	g := graph.Ring(6)
	u := New(DefaultPeriod(g.N()))
	comp := core.Compose(u)
	net := sim.NewNetwork(g)
	start := sim.InitialConfiguration(comp, net)
	for _, df := range sim.StandardDaemonFactories() {
		if err := checker.CheckClosure(net, comp, df.New(1), start, sim.AllProcesses(net, core.NormalPredicate(u)), 3_000); err != nil {
			t.Errorf("normal set not closed under %s: %v", df.Name, err)
		}
	}
}

func TestExhaustiveUnisonConvergenceTinyRing(t *testing.T) {
	// Exhaustive convergence of U ∘ SDR on a 3-ring with K=4: from every
	// possible configuration, under every daemon choice, the legitimate set
	// is reached and never left.
	if testing.Short() {
		t.Skip("exhaustive exploration skipped in -short mode")
	}
	g := graph.Ring(3)
	u := New(4)
	comp := core.Compose(u)
	net := sim.NewNetwork(g)

	perProcess := make([][]sim.State, net.N())
	for p := 0; p < net.N(); p++ {
		perProcess[p] = sim.StateSpace(comp, p, net)
	}
	var starts []*sim.Configuration
	for _, a := range perProcess[0] {
		for _, b := range perProcess[1] {
			for _, c := range perProcess[2] {
				starts = append(starts, sim.NewConfiguration([]sim.State{a, b, c}))
			}
		}
	}
	report, err := checker.Explore(net, comp, starts, checker.ExploreOptions{
		MaxConfigurations: 600_000,
		Legitimate:        sim.AllProcesses(net, core.NormalPredicate(u)),
	})
	if err != nil {
		t.Fatalf("exploration failed: %v", err)
	}
	if !report.Complete {
		t.Fatalf("exploration incomplete after %d configurations", report.Configurations)
	}
	if report.TerminalConfigurations != 0 {
		t.Errorf("U ∘ SDR should have no terminal configuration (unison is live), found %d", report.TerminalConfigurations)
	}
}

func TestUncooperativeVariantStillStabilizes(t *testing.T) {
	// The A1 ablation changes efficiency, not correctness: the uncooperative
	// composition still converges to normal configurations.
	g := graph.Ring(7)
	u := New(DefaultPeriod(g.N()))
	comp := core.Compose(u, core.WithUncooperativeResets())
	net := sim.NewNetwork(g)
	rng := rand.New(rand.NewSource(8))
	start := randomStart(t, comp, net, rng)
	res := sim.NewEngine(net, comp, sim.NewDistributedRandomDaemon(rng, 0.5)).Run(start,
		sim.WithMaxSteps(500_000),
		sim.WithLegitimate(core.NormalPredicate(u)),
		sim.WithStopWhenLegitimate(),
	)
	if !res.LegitimateReached {
		t.Fatal("the uncooperative composition did not stabilize")
	}
}

func TestTickCounter(t *testing.T) {
	tc := NewTickCounter(3)
	hook := tc.Hook()
	tick := core.InnerRuleIndex(tickRule)
	if name := core.Compose(New(3)).Rules()[tick].Name; name != core.InnerRuleName(RuleTick) {
		t.Fatalf("the counter watches rule %q", name)
	}
	hook(sim.StepInfo{Activated: []int{0, 2}, Rules: []int{tick, 0}})
	hook(sim.StepInfo{Activated: []int{0}, Rules: []int{tick}})
	if counts := tc.counts; counts[0] != 2 || counts[1] != 0 || counts[2] != 0 {
		t.Errorf("counts = %v, want [2 0 0]", counts)
	}
	if tc.Min() != 0 {
		t.Errorf("Min = %d, want 0", tc.Min())
	}
	if empty := NewTickCounter(0); empty.Min() != 0 {
		t.Error("Min of an empty counter is 0")
	}
}

func TestQuickSafetyPreservedByTicks(t *testing.T) {
	// Property (Lemma 17): from any configuration satisfying P_ICorrect
	// everywhere, one synchronous step of Algorithm U preserves it.
	g := graph.Ring(5)
	u := New(9)
	alg := core.NewStandalone(u)
	net := sim.NewNetwork(g)
	safety := standaloneSafety(u, net)

	property := func(raw [5]uint8) bool {
		states := make([]sim.State, 5)
		base := int(raw[0]) % u.K()
		for i := range states {
			// Build configurations that satisfy safety by construction:
			// every clock within ±1 of a base value.
			offset := int(raw[i])%3 - 1
			states[i] = ClockState{C: mod(base+offset, u.K())}
		}
		cfg := sim.NewConfiguration(states)
		if !safety(cfg) {
			return true // only configurations satisfying safety are premises
		}
		res := sim.NewEngine(net, alg, sim.SynchronousDaemon{}).Run(cfg, sim.WithMaxSteps(1))
		return safety(res.Final)
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
