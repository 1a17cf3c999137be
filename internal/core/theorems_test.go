package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"sdr/internal/checker"
	"sdr/internal/graph"
	"sdr/internal/sim"
)

// These tests validate the paper's main theorems on executions of the
// composition testInner ∘ SDR: convergence and closure (self-stabilization),
// the attractor chain P1 ⊇ P2 ⊇ P3 ⊇ P4, and the round bound of Corollary 5.

// aliveRootSet returns the alive-root set of a configuration as a map.
func aliveRootSet(inner Resettable, net *sim.Network, c *sim.Configuration) map[int]bool {
	set := make(map[int]bool)
	for _, u := range AliveRoots(inner, net, c) {
		set[u] = true
	}
	return set
}

func TestExhaustiveConvergenceOnTinyNetworks(t *testing.T) {
	// Exhaustive verification of convergence + closure on tiny networks:
	// every configuration reachable from every possible starting
	// configuration, under every daemon choice, eventually reaches the
	// normal set and never leaves it. This is the strongest check short of
	// re-proving the theorems.
	if testing.Short() {
		t.Skip("exhaustive exploration skipped in -short mode")
	}
	topologies := map[string]*graph.Graph{
		"path2": graph.Path(2),
		"path3": graph.Path(3),
		"ring3": graph.Ring(3),
	}
	for name, g := range topologies {
		name, g := name, g
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			inner := newTestInner(1) // values {0,1}: small but non-trivial
			comp := Compose(inner)
			net := sim.NewNetwork(g)

			// All configurations over the enumerated state space are starting
			// points.
			perProcess := make([][]sim.State, net.N())
			for u := 0; u < net.N(); u++ {
				perProcess[u] = sim.StateSpace(comp, u, net)
			}
			var starts []*sim.Configuration
			var build func(u int, acc []sim.State)
			build = func(u int, acc []sim.State) {
				if u == net.N() {
					starts = append(starts, sim.NewConfiguration(acc))
					return
				}
				for _, s := range perProcess[u] {
					build(u+1, append(append([]sim.State(nil), acc...), s))
				}
			}
			build(0, nil)

			report, err := checker.Explore(net, comp, starts, checker.ExploreOptions{
				MaxConfigurations: 400_000,
				Legitimate:        sim.AllProcesses(net, NormalPredicate(inner)),
			})
			if err != nil {
				t.Fatalf("exploration failed: %v", err)
			}
			if !report.Complete {
				t.Fatalf("exploration incomplete (%d configurations)", report.Configurations)
			}
			if report.LegitimateConfigurations == 0 {
				t.Fatal("no legitimate configuration is reachable")
			}
		})
	}
}

func TestNormalSetIsClosed(t *testing.T) {
	// Closure half of self-stabilization (Corollary 5): once the composition
	// is in a normal configuration it stays in normal configurations.
	inner := newTestInner(4)
	comp := Compose(inner)
	g := graph.Ring(5)
	net := sim.NewNetwork(g)
	normal := sim.AllProcesses(net, NormalPredicate(inner))

	start := sim.InitialConfiguration(comp, net)
	if !normal(start) {
		t.Fatal("γ_init must be normal")
	}
	for _, df := range sim.StandardDaemonFactories() {
		if err := checker.CheckClosure(net, comp, df.New(3), start, normal, 5_000); err != nil {
			t.Errorf("normal set not closed under daemon %s: %v", df.Name, err)
		}
	}
}

func TestNoAliveRootCreationInvariant(t *testing.T) {
	// Theorem 3, checked as a step invariant over sampled executions from
	// random configurations: the alive-root set never gains a member.
	inner := newTestInner(2)
	comp := Compose(inner)
	g := graph.RandomConnected(7, 0.35, rand.New(rand.NewSource(17)))
	net := sim.NewNetwork(g)
	states := sim.StateSpace(comp, 0, net)
	rng := rand.New(rand.NewSource(23))

	for trial := 0; trial < 25; trial++ {
		cfgStates := make([]sim.State, net.N())
		for u := range cfgStates {
			cfgStates[u] = states[rng.Intn(len(states))]
		}
		start := sim.NewConfiguration(cfgStates)
		prev := aliveRootSet(inner, net, start)
		violated := false
		hook := func(info sim.StepInfo) {
			cur := aliveRootSet(inner, net, info.After)
			for u := range cur {
				if !prev[u] {
					violated = true
				}
			}
			prev = cur
		}
		daemon := sim.NewDistributedRandomDaemon(rand.New(rand.NewSource(int64(trial*7))), 0.4)
		eng := sim.NewEngine(net, comp, daemon)
		eng.Run(start, sim.WithMaxSteps(20_000), sim.WithStepHook(hook))
		if violated {
			t.Fatalf("trial %d: an alive root was created during the execution", trial)
		}
	}
}

func TestConvergenceWithinRoundBound(t *testing.T) {
	// Corollary 5: from any configuration, a normal configuration is reached
	// within 3n rounds. Sampled over random configurations, topologies and
	// daemons.
	inner := newTestInner(3)
	topologies := []*graph.Graph{
		graph.Ring(8),
		graph.Path(9),
		graph.Star(7),
		graph.RandomConnected(10, 0.3, rand.New(rand.NewSource(3))),
	}
	for _, g := range topologies {
		comp := Compose(inner)
		net := sim.NewNetwork(g)
		states := sim.StateSpace(comp, 0, net)
		rng := rand.New(rand.NewSource(int64(g.N())))
		for _, df := range sim.StandardDaemonFactories() {
			if df.Name == "greedy-adversarial" && g.N() > 8 {
				continue // quadratic lookahead; keep the test fast
			}
			cfgStates := make([]sim.State, net.N())
			for u := range cfgStates {
				cfgStates[u] = states[rng.Intn(len(states))]
			}
			start := sim.NewConfiguration(cfgStates)
			eng := sim.NewEngine(net, comp, df.New(int64(g.N())))
			res := eng.Run(start,
				sim.WithMaxSteps(200_000),
				sim.WithLegitimate(NormalPredicate(inner)),
				sim.WithStopWhenLegitimate(),
			)
			if !res.LegitimateReached {
				t.Fatalf("daemon %s on n=%d: no normal configuration reached", df.Name, g.N())
			}
			if res.StabilizationRounds > MaxResetRounds(net.N()) {
				t.Errorf("daemon %s on n=%d: stabilization took %d rounds, bound is %d",
					df.Name, g.N(), res.StabilizationRounds, MaxResetRounds(net.N()))
			}
		}
	}
}

func TestQuickConvergenceFromRandomConfigurations(t *testing.T) {
	// Property-based convergence: for every randomly drawn configuration and
	// daemon seed, the composition reaches a normal configuration within the
	// proven round bound.
	inner := newTestInner(2)
	comp := Compose(inner)
	g := graph.Ring(6)
	net := sim.NewNetwork(g)
	states := sim.StateSpace(comp, 0, net)

	property := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfgStates := make([]sim.State, net.N())
		for u := range cfgStates {
			cfgStates[u] = states[rng.Intn(len(states))]
		}
		start := sim.NewConfiguration(cfgStates)
		daemon := sim.NewDistributedRandomDaemon(rng, 0.5)
		res := sim.NewEngine(net, comp, daemon).Run(start,
			sim.WithMaxSteps(100_000),
			sim.WithLegitimate(NormalPredicate(inner)),
			sim.WithStopWhenLegitimate(),
		)
		return res.LegitimateReached && res.StabilizationRounds <= MaxResetRounds(net.N())
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestCompositionIsSilentForTerminatingInner(t *testing.T) {
	// The test inner algorithm terminates (values capped); composed with SDR
	// from any sampled configuration, the whole composition therefore reaches
	// a terminal configuration — silence in the sense of Dolev-Gouda-Schneider
	// for static specifications.
	inner := newTestInner(2)
	comp := Compose(inner)
	g := graph.Path(6)
	net := sim.NewNetwork(g)
	states := sim.StateSpace(comp, 0, net)
	rng := rand.New(rand.NewSource(31))

	for trial := 0; trial < 20; trial++ {
		cfgStates := make([]sim.State, net.N())
		for u := range cfgStates {
			cfgStates[u] = states[rng.Intn(len(states))]
		}
		daemon := sim.NewCentralRandomDaemon(rand.New(rand.NewSource(int64(trial))))
		res := sim.NewEngine(net, comp, daemon).Run(sim.NewConfiguration(cfgStates), sim.WithMaxSteps(100_000))
		if !res.Terminated {
			t.Fatalf("trial %d: composition did not terminate", trial)
		}
		if !normal(inner, net, res.Final) {
			t.Fatalf("trial %d: terminal configuration %s is not normal", trial, res.Final)
		}
	}
}
