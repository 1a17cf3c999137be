package faults_test

import (
	"math/rand"
	"testing"

	"sdr/internal/core"
	"sdr/internal/graph"
	"sdr/internal/scenario"
	"sdr/internal/sim"
	"sdr/internal/unison"
)

// TestStandardScenariosProduceRecoverableStarts checks the fault models the
// scenario registry builds from this package: each must produce a
// configuration from which the composition stabilizes, the contract the
// experiment harness relies on.
func TestStandardScenariosProduceRecoverableStarts(t *testing.T) {
	g := graph.Ring(8)
	u := unison.New(unison.DefaultPeriod(g.N()))
	net, comp := sim.NewNetwork(g), core.Compose(u)
	for _, name := range []string{"random-all", "inner-only", "fake-wave", "half-corrupt"} {
		t.Run(name, func(t *testing.T) {
			fault, err := scenario.FaultByName(name)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(9))
			start, err := fault.Build(comp, u, net, rng)
			if err != nil {
				t.Fatal(err)
			}
			if start.N() != net.N() {
				t.Fatalf("fault model produced %d states for %d processes", start.N(), net.N())
			}
			res := sim.NewEngine(net, comp, sim.NewDistributedRandomDaemon(rng, 0.5)).Run(start,
				sim.WithMaxSteps(200_000),
				sim.WithLegitimate(core.NormalPredicate(u)),
				sim.WithStopWhenLegitimate(),
			)
			if !res.LegitimateReached {
				t.Errorf("fault model %s produced a start from which the system did not stabilize", name)
			}
		})
	}
}
