package core_test

import (
	"math/rand"
	"testing"

	"sdr/internal/core"
	"sdr/internal/faults"
	"sdr/internal/scenario"
	"sdr/internal/sim"
	"sdr/internal/unison"
)

// globalNormal is the whole-configuration definition of a normal
// configuration (Definition 6), written as the loop over all processes the
// engine used to run every step: P_Clean(u) ∧ P_ICorrect(u) at every u.
func globalNormal(inner core.Resettable, net *sim.Network, c *sim.Configuration) bool {
	for u := 0; u < net.N(); u++ {
		v := net.View(c, u)
		if !core.PClean(v) || !core.PICorrect(inner, v) {
			return false
		}
	}
	return true
}

// globalBPV is the whole-configuration legitimacy of the BPV baseline:
// every clock is in the ring, then every edge satisfies the drift bound.
func globalBPV(b *unison.BPV, net *sim.Network, c *sim.Configuration) bool {
	for u := 0; u < c.N(); u++ {
		if c.State(u).(unison.BPVState).R < 0 {
			return false
		}
	}
	for _, e := range net.Graph().Edges() {
		x, y := c.State(e[0]).(unison.BPVState).R, c.State(e[1]).(unison.BPVState).R
		if unison.CircularDistance(x, y, b.K()) > 1 {
			return false
		}
	}
	return true
}

// corruptOne returns a copy of c in which one random process holds a random
// state of its space: near-legitimate configurations, so that both verdicts
// occur.
func corruptOne(alg sim.Algorithm, net *sim.Network, c *sim.Configuration, rng *rand.Rand) *sim.Configuration {
	out := c.Clone()
	u := rng.Intn(net.N())
	enum := alg.(sim.Enumerable)
	out.SetState(u, enum.StateAt(u, net, rng.Intn(enum.StateCount(u, net))))
	return out
}

// TestLocalLegitimacyMatchesGlobal checks the registered per-process
// legitimacy predicates, lifted with sim.AllProcesses, against the
// whole-configuration definitions they replace: core's normal
// configurations for every registered composition and the BPV drift bound,
// on ring, torus and random graphs, from uniformly random, reset-biased
// (with out-of-range statuses), initial and singly corrupted initial
// configurations. Both verdicts must occur for every entry.
func TestLocalLegitimacyMatchesGlobal(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, gr := range indexerGraphs(rng) {
		net := sim.NewNetwork(gr.g)
		for _, nc := range composedEntries(t, gr.g, net) {
			name, comp := nc.name, nc.comp
			if nc.legit == nil {
				t.Fatalf("%s: composed entry registers no legitimacy predicate", name)
			}
			local := sim.AllProcesses(net, nc.legit)
			init := sim.InitialConfiguration(comp, net)
			seen := map[bool]int{}
			for trial := 0; trial < 60; trial++ {
				c, err := faults.RandomConfiguration(comp, net, rng)
				if err != nil {
					t.Fatalf("%s/%s: %v", name, gr.name, err)
				}
				for _, cfg := range []*sim.Configuration{c, resetBiased(comp, net, c, rng), init, corruptOne(comp, net, init, rng)} {
					want := globalNormal(comp.Inner(), net, cfg)
					if got := local(cfg); got != want {
						t.Fatalf("%s/%s trial %d: lifted predicate %v, global definition %v in %s", name, gr.name, trial, got, want, cfg)
					}
					seen[want]++
				}
			}
			if seen[true] == 0 || seen[false] == 0 {
				t.Errorf("%s/%s: verdicts %v, want both", name, gr.name, seen)
			}
		}

		entry, err := scenario.AlgorithmByName("bpv")
		if err != nil {
			t.Fatal(err)
		}
		asm, err := entry.Build(gr.g, net, scenario.Params{})
		if err != nil {
			t.Fatal(err)
		}
		b := asm.Algorithm.(*unison.BPV)
		local := sim.AllProcesses(net, asm.Legitimate)
		seen := map[bool]int{}
		for trial := 0; trial < 200; trial++ {
			c, err := faults.RandomConfiguration(b, net, rng)
			if err != nil {
				t.Fatal(err)
			}
			// A ring value plus a drift of at most one everywhere, then one
			// process anywhere in the tailed ring (tail values included).
			near := make([]sim.State, net.N())
			base := rng.Intn(b.K())
			for u := range near {
				near[u] = unison.BPVState{R: (base + rng.Intn(2)) % b.K()}
			}
			nearCfg := sim.NewConfiguration(near)
			for _, cfg := range []*sim.Configuration{c, nearCfg, corruptOne(b, net, nearCfg, rng)} {
				want := globalBPV(b, net, cfg)
				if got := local(cfg); got != want {
					t.Fatalf("bpv/%s trial %d: lifted predicate %v, global definition %v in %s", gr.name, trial, got, want, cfg)
				}
				seen[want]++
			}
		}
		if seen[true] == 0 || seen[false] == 0 {
			t.Errorf("bpv/%s: verdicts %v, want both", gr.name, seen)
		}
	}
}
