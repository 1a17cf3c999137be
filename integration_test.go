package sdr_test

import (
	"math/rand"
	"testing"

	"sdr/internal/alliance"
	"sdr/internal/core"
	"sdr/internal/faults"
	"sdr/internal/graph"
	"sdr/internal/sim"
	"sdr/internal/spantree"
	"sdr/internal/unison"
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

// TestEndToEndUnisonRecovery is the README quickstart as a test: U ∘ SDR on a
// ring recovers from a fully corrupted configuration within the paper's
// bounds and then satisfies the unison specification.
func TestEndToEndUnisonRecovery(t *testing.T) {
	const n = 12
	g := graph.Ring(n)
	net := sim.NewNetwork(g)
	u := unison.New(unison.DefaultPeriod(n))
	composed := core.Compose(u)
	rng := rand.New(rand.NewSource(2024))

	start := randomStart(t, composed, net, rng)
	daemon := sim.NewDistributedRandomDaemon(rng, 0.5)
	engine := sim.NewEngine(net, composed, daemon)
	res := engine.Run(start,
		sim.WithLegitimate(core.NormalPredicate(u)),
		sim.WithStopWhenLegitimate(),
	)
	if !res.LegitimateReached {
		t.Fatal("the composition did not stabilize")
	}
	if res.StabilizationRounds > unison.MaxStabilizationRounds(n) {
		t.Errorf("stabilization took %d rounds, bound is %d", res.StabilizationRounds, unison.MaxStabilizationRounds(n))
	}
	if res.StabilizationMoves > unison.MaxStabilizationMoves(n, g.Diameter()) {
		t.Errorf("stabilization took %d moves, bound is %d", res.StabilizationMoves, unison.MaxStabilizationMoves(n, g.Diameter()))
	}

	ticker := unison.NewTickCounter(n)
	safety := unison.SafetyPredicate(u, net)
	violations := 0
	engine.Run(res.Final,
		sim.WithMaxSteps(40*n),
		sim.WithStepHook(ticker.Hook()),
		sim.WithStepHook(func(info sim.StepInfo) {
			if !safety(info.After) {
				violations++
			}
		}),
	)
	if violations > 0 {
		t.Errorf("unison safety violated %d times after stabilization", violations)
	}
	if ticker.Min() == 0 {
		t.Error("liveness: some clock never ticked after stabilization")
	}
}

// TestEndToEndAllianceRecovery converges FGA ∘ SDR, injects a fault into the
// converged system, and checks that it recovers a 1-minimal alliance — the
// scenario of the alliance example.
func TestEndToEndAllianceRecovery(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := graph.RandomConnected(14, 0.4, rng)
	net := sim.NewNetwork(g)
	spec := alliance.GlobalPowerfulAlliance()
	if err := spec.Validate(g); err != nil {
		t.Skipf("spec not solvable on this random graph: %v", err)
	}
	composed := alliance.NewSelfStabilizing(spec)
	daemon := sim.NewDistributedRandomDaemon(rng, 0.5)
	engine := sim.NewEngine(net, composed, daemon)

	res := engine.Run(sim.InitialConfiguration(composed, net))
	if !res.Terminated {
		t.Fatal("FGA ∘ SDR did not terminate from γ_init")
	}
	if !alliance.Is1Minimal(g, spec, alliance.Members(res.Final)) {
		t.Fatal("the converged alliance is not 1-minimal")
	}

	corrupted, err := faults.CorruptFraction(composed, net, res.Final, 0.5, rng)
	if err != nil {
		t.Fatal(err)
	}
	res2 := engine.Run(corrupted)
	if !res2.Terminated {
		t.Fatal("FGA ∘ SDR did not recover after the fault")
	}
	if !alliance.Is1Minimal(g, spec, alliance.Members(res2.Final)) {
		t.Error("the recovered alliance is not 1-minimal")
	}
	if res2.Moves > alliance.MaxStabilizationMoves(g.N(), g.M(), g.MaxDegree()) {
		t.Errorf("recovery took %d moves, exceeding the O(Δ·n·m) bound", res2.Moves)
	}
}

// TestEndToEndThreeInstantiationsShareTheReset runs the three instantiations
// on the same topology and checks the SDR-level guarantees hold identically:
// same bound, no alive-root creations, silent termination where applicable.
func TestEndToEndThreeInstantiationsShareTheReset(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	g := graph.Grid(3, 4)
	net := sim.NewNetwork(g)

	instantiations := []struct {
		name   string
		comp   *core.Composed
		silent bool
	}{
		{"unison", core.Compose(unison.New(unison.DefaultPeriod(g.N()))), false},
		{"alliance", alliance.NewSelfStabilizing(alliance.DominatingSet()), true},
		{"spantree", spantree.NewSelfStabilizing(g, 0), true},
	}
	for _, inst := range instantiations {
		inst := inst
		t.Run(inst.name, func(t *testing.T) {
			start := randomStart(t, inst.comp, net, rng)
			observer := core.NewObserver(inst.comp.Inner(), net)
			observer.Prime(start)
			daemon := sim.NewDistributedRandomDaemon(rand.New(rand.NewSource(5)), 0.5)
			res := sim.NewEngine(net, inst.comp, daemon).Run(start,
				sim.WithMaxSteps(500_000),
				sim.WithLegitimate(core.NormalPredicate(inst.comp.Inner())),
				sim.WithStepHook(observer.Hook()),
				sim.WithStopWhenLegitimate(),
			)
			if !res.LegitimateReached {
				t.Fatal("did not reach a normal configuration")
			}
			if res.StabilizationRounds > core.MaxResetRounds(g.N()) {
				t.Errorf("normal configuration reached after %d rounds, bound %d",
					res.StabilizationRounds, core.MaxResetRounds(g.N()))
			}
			if observer.AliveRootViolations() != 0 {
				t.Errorf("%d alive roots created", observer.AliveRootViolations())
			}
			if observer.MaxSDRMoves() > core.MaxSDRMovesPerProcess(g.N()) {
				t.Errorf("a process executed %d SDR moves, bound %d",
					observer.MaxSDRMoves(), core.MaxSDRMovesPerProcess(g.N()))
			}
			if inst.silent {
				full := sim.NewEngine(net, inst.comp, daemon).Run(res.Final, sim.WithMaxSteps(500_000))
				if !full.Terminated {
					t.Error("a static instantiation must terminate (silence)")
				}
			}
		})
	}
}
