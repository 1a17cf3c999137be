package alliance

import (
	"math/rand"
	"testing"

	"sdr/internal/core"
	"sdr/internal/graph"
	"sdr/internal/sim"
)

// TestFGASmoke is an early end-to-end check: FGA alone, from γ_init, on a few
// small topologies and specs, terminates in a 1-minimal (f,g)-alliance.
func TestFGASmoke(t *testing.T) {
	topologies := map[string]*graph.Graph{
		"ring8":     graph.Ring(8),
		"complete5": graph.Complete(5),
		"grid3x3":   graph.Grid(3, 3),
	}
	for name, g := range topologies {
		for _, spec := range []Spec{DominatingSet(), GlobalPowerfulAlliance()} {
			t.Run(name+"/"+spec.Name, func(t *testing.T) {
				if err := spec.Validate(g); err != nil {
					t.Skipf("spec not solvable on this topology: %v", err)
				}
				net := sim.NewNetwork(g)
				alg := core.NewStandalone(NewFGA(spec))
				daemon := sim.NewDistributedRandomDaemon(rand.New(rand.NewSource(1)), 0.5)
				eng := sim.NewEngine(net, alg, daemon)
				res := eng.Run(sim.InitialConfiguration(alg, net), sim.WithMaxSteps(200_000))
				if !res.Terminated {
					t.Fatalf("FGA did not terminate (steps=%d moves=%d)", res.Steps, res.Moves)
				}
				members := Members(res.Final)
				if err := Explain1Minimal(g, spec, members); err != nil {
					t.Fatalf("terminal alliance %v is not 1-minimal: %v", members, err)
				}
			})
		}
	}
}

// TestFGAComposedSmoke is an early end-to-end check of FGA ∘ SDR from a
// random (corrupted) configuration.
func TestFGAComposedSmoke(t *testing.T) {
	g := graph.Ring(7)
	spec := DominatingSet()
	net := sim.NewNetwork(g)
	composed := NewSelfStabilizing(spec)
	rng := rand.New(rand.NewSource(42))
	daemon := sim.NewDistributedRandomDaemon(rng, 0.6)
	eng := sim.NewEngine(net, composed, daemon)

	// Random composed configuration over the full state space.
	states := make([]sim.State, net.N())
	for u := range states {
		states[u] = composed.StateAt(u, net, rng.Intn(composed.StateCount(u, net)))
	}
	start := sim.NewConfiguration(states)

	res := eng.Run(start, sim.WithMaxSteps(500_000))
	if !res.Terminated {
		t.Fatalf("FGA∘SDR did not terminate (steps=%d moves=%d final=%s)", res.Steps, res.Moves, res.Final)
	}
	members := Members(res.Final)
	if err := Explain1Minimal(g, spec, members); err != nil {
		t.Fatalf("terminal alliance %v is not 1-minimal: %v", members, err)
	}
}
