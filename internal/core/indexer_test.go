package core_test

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"sdr/internal/core"
	"sdr/internal/faults"
	"sdr/internal/graph"
	"sdr/internal/scenario"
	"sdr/internal/sim"
)

// guardFirstEnabled is the specification FirstEnabled must match: the index
// of the first rule whose Guard holds at v, or -1.
func guardFirstEnabled(rules []sim.Rule, v sim.View) int {
	for i := range rules {
		if rules[i].Guard(v) {
			return i
		}
	}
	return -1
}

// indexerGraphs are the topologies of the indexer table test.
func indexerGraphs(rng *rand.Rand) []struct {
	name string
	g    *graph.Graph
} {
	return []struct {
		name string
		g    *graph.Graph
	}{
		{"ring", graph.Ring(12)},
		{"torus", graph.Torus(4, 4)},
		{"random", graph.RandomConnected(14, 0.3, rng)},
	}
}

// namedComposition is one registered composition built on a network, with
// its registered per-process legitimacy predicate.
type namedComposition struct {
	name  string
	comp  *core.Composed
	legit sim.ProcessPredicate
}

// composedEntries builds every registered composition on net, in registry
// order, skipping the alliance specs the topology cannot satisfy.
func composedEntries(t *testing.T, g *graph.Graph, net *sim.Network) []namedComposition {
	t.Helper()
	var out []namedComposition
	for _, name := range scenario.Algorithms() {
		entry, err := scenario.AlgorithmByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if !entry.Composed {
			continue
		}
		asm, err := entry.Build(g, net, scenario.Params{})
		if errors.Is(err, scenario.ErrUnsatisfiable) {
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		comp, ok := asm.Algorithm.(*core.Composed)
		if !ok {
			t.Fatalf("%s: composed entry built %T", name, asm.Algorithm)
		}
		out = append(out, namedComposition{name, comp, asm.Legitimate})
	}
	return out
}

// namedStandalone is one registered standalone inner algorithm built on a
// network.
type namedStandalone struct {
	name string
	alg  *core.Standalone
}

// standaloneEntries builds every registered standalone inner algorithm on
// net, in registry order, skipping the alliance specs the topology cannot
// satisfy.
func standaloneEntries(t *testing.T, g *graph.Graph, net *sim.Network) []namedStandalone {
	t.Helper()
	var out []namedStandalone
	for _, name := range scenario.Algorithms() {
		entry, err := scenario.AlgorithmByName(name)
		if err != nil {
			t.Fatal(err)
		}
		asm, err := entry.Build(g, net, scenario.Params{})
		if errors.Is(err, scenario.ErrUnsatisfiable) {
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if s, ok := asm.Algorithm.(*core.Standalone); ok {
			out = append(out, namedStandalone{name, s})
		}
	}
	return out
}

// initialBiased returns a copy of c in which every process holds its
// initial state with probability 3/4. Uniform random inner states are
// almost never locally correct on a torus, so this is what reaches the
// inner rules of a standalone algorithm.
func initialBiased(alg sim.Algorithm, net *sim.Network, c *sim.Configuration, rng *rand.Rand) *sim.Configuration {
	out := c.Clone()
	for u := 0; u < net.N(); u++ {
		if rng.Intn(4) > 0 {
			out.SetState(u, alg.InitialState(u, net))
		}
	}
	return out
}

// resetBiased returns a copy of c in which every process draws a status
// among C, RB, RF and two out-of-range values, a small distance, and its
// reset inner state with probability 3/4. Uniform random states almost
// never hold P_reset, so this is what reaches rule_RF, rule_C and the P_R1
// branch of rule_R.
func resetBiased(comp *core.Composed, net *sim.Network, c *sim.Configuration, rng *rand.Rand) *sim.Configuration {
	statuses := []core.Status{core.StatusC, core.StatusRB, core.StatusRF, 0, core.StatusRF + 1}
	out := c.Clone()
	for u := 0; u < net.N(); u++ {
		inner := core.InnerPart(c.State(u))
		if rng.Intn(4) > 0 {
			inner = comp.Inner().ResetState(u, net)
		}
		st := statuses[rng.Intn(len(statuses))]
		if rng.Intn(4) > 0 && st != core.StatusC {
			// Keep most processes at a real status so that out-of-range
			// neighbours stay a minority.
			st = statuses[rng.Intn(3)]
		}
		out.SetState(u, core.ComposedState{SDR: core.SDRState{St: st, D: rng.Intn(4)}, Inner: inner})
	}
	return out
}

// TestFirstEnabledMatchesGuards checks Composed.FirstEnabled against the
// rule Guards at every process, for every registered composition on ring,
// torus and random graphs, from uniformly random configurations and from
// reset-biased ones carrying out-of-range statuses. It also checks that the
// configurations reached every SDR rule, an inner rule and the disabled
// case, so that no branch of the indexer goes untested. It checks
// Standalone.FirstEnabled the same way for every registered standalone
// algorithm, from random and initial-biased configurations, which must
// reach an enabled rule and the disabled case.
func TestFirstEnabledMatchesGuards(t *testing.T) {
	rng, srng := rand.New(rand.NewSource(22)), rand.New(rand.NewSource(26))
	for _, gr := range indexerGraphs(rng) {
		net := sim.NewNetwork(gr.g)
		for _, ns := range standaloneEntries(t, gr.g, net) {
			name, alg := ns.name, ns.alg
			rules := alg.Rules()
			hits := make(map[int]int)
			for trial := 0; trial < 100; trial++ {
				c, err := faults.RandomConfiguration(alg, net, srng)
				if err != nil {
					t.Fatalf("%s/%s: %v", name, gr.name, err)
				}
				for _, cfg := range []*sim.Configuration{c, initialBiased(alg, net, c, srng)} {
					for u := 0; u < net.N(); u++ {
						v := net.View(cfg, u)
						got, want := alg.FirstEnabled(v), guardFirstEnabled(rules, v)
						if got != want {
							t.Fatalf("%s/%s trial %d: FirstEnabled(%d) = %d, guards give %d in %s",
								name, gr.name, trial, u, got, want, cfg)
						}
						hits[min(want, 0)]++
					}
				}
			}
			if hits[-1] == 0 || hits[0] == 0 {
				t.Errorf("%s/%s: %d processes disabled, %d enabled; want both", name, gr.name, hits[-1], hits[0])
			}
		}
		for _, nc := range composedEntries(t, gr.g, net) {
			name, comp := nc.name, nc.comp
			rules := comp.Rules()
			hits := make(map[int]int)
			for trial := 0; trial < 100; trial++ {
				c, err := faults.RandomConfiguration(comp, net, rng)
				if err != nil {
					t.Fatalf("%s/%s: %v", name, gr.name, err)
				}
				for _, cfg := range []*sim.Configuration{c, resetBiased(comp, net, c, rng)} {
					for u := 0; u < net.N(); u++ {
						v := net.View(cfg, u)
						got, want := comp.FirstEnabled(v), guardFirstEnabled(rules, v)
						if got != want {
							t.Fatalf("%s/%s trial %d: FirstEnabled(%d) = %d, guards give %d in %s",
								name, gr.name, trial, u, got, want, cfg)
						}
						hits[want]++
					}
				}
			}
			for _, want := range []int{-1, 0, 1, 2, 3} {
				if hits[want] == 0 {
					t.Errorf("%s/%s: no process had first enabled rule %d", name, gr.name, want)
				}
			}
			inner := 0
			for ri, k := range hits {
				if ri >= 4 {
					inner += k
				}
			}
			if inner == 0 {
				t.Errorf("%s/%s: no process had an inner rule enabled first", name, gr.name)
			}
		}
	}
}

// TestFirstEnabledHandMade pins the branches the registered inner
// algorithms cannot reach, on hand-made configurations of a ring whose
// process 0 has status st and every other process is clean. The inner rule
// of testInner is always enabled, so only the composition's P_Clean keeps it
// from firing next to process 0: a neighbour at status RF or at an
// out-of-range status makes a C process unclean. A process whose status is
// none of C, RB, RF has rule_R enabled exactly when it is not in its reset
// state.
func TestFirstEnabledHandMade(t *testing.T) {
	g := graph.Ring(5)
	net := sim.NewNetwork(g)
	comp := core.Compose(testInner{})
	for _, st := range []core.Status{0, core.StatusRB, core.StatusRF, core.StatusRF + 1} {
		for _, reset := range []bool{false, true} {
			states := make([]sim.State, net.N())
			for u := range states {
				states[u] = comp.InitialState(u, net)
			}
			inner := comp.Inner().ResetState(0, net)
			if !reset {
				inner = testInnerState(1)
			}
			states[0] = core.ComposedState{SDR: core.SDRState{St: st, D: 2}, Inner: inner}
			c := sim.NewConfiguration(states)
			for u := 0; u < net.N(); u++ {
				v := net.View(c, u)
				if got, want := comp.FirstEnabled(v), guardFirstEnabled(comp.Rules(), v); got != want {
					t.Fatalf("status %v reset=%v: FirstEnabled(%d) = %d, guards give %d", st, reset, u, got, want)
				}
			}
			if st.Valid() {
				continue
			}
			want := 3 // rule_R
			if reset {
				want = -1
			}
			if got := comp.FirstEnabled(net.View(c, 0)); got != want {
				t.Errorf("status %v reset=%v: FirstEnabled(0) = %d, want %d", st, reset, got, want)
			}
			if got := comp.FirstEnabled(net.View(c, 1)); got != -1 {
				t.Errorf("status %v reset=%v: FirstEnabled(1) = %d next to an out-of-range status, want -1", st, reset, got)
			}
		}
	}
}

// testInnerState is the inner state of testInner: a counter whose reset
// value is 0.
type testInnerState int

func (s testInnerState) Equal(o sim.State) bool { return o == sim.State(s) }
func (s testInnerState) String() string         { return fmt.Sprint(int(s)) }

// testInner is a minimal inner algorithm in which every state is correct
// and whose one rule is always enabled: its guard does not read Clean.
type testInner struct{}

func (testInner) Name() string { return "test" }
func (testInner) InnerRules() []core.InnerRule {
	return []core.InnerRule{{
		Name:   "always",
		Guard:  func(core.InnerView) bool { return true },
		Action: func(v core.InnerView) sim.State { return v.Self() },
	}}
}
func (testInner) InitialInner(int, *sim.Network) sim.State { return testInnerState(0) }
func (testInner) ICorrect(core.InnerView) bool             { return true }
func (testInner) Decide(core.InnerView) (bool, int)        { return true, 0 }
func (testInner) IsReset(_ int, _ *sim.Network, s sim.State) bool {
	return s == sim.State(testInnerState(0))
}
func (testInner) ResetState(int, *sim.Network) sim.State { return testInnerState(0) }

// TestFirstEnabledAllocationFree checks that the indexer allocates nothing
// per call for every registered composition and standalone algorithm on a
// torus.
func TestFirstEnabledAllocationFree(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := graph.Torus(6, 6)
	net := sim.NewNetwork(g)
	for _, ns := range standaloneEntries(t, g, net) {
		name, alg := ns.name, ns.alg
		c, err := faults.RandomConfiguration(alg, net, rng)
		if err != nil {
			t.Fatal(err)
		}
		biased := initialBiased(alg, net, c, rng)
		runtime.GC() // a collection inside the measured runs can add a malloc
		allocs := testing.AllocsPerRun(20, func() {
			for u := 0; u < net.N(); u++ {
				alg.FirstEnabled(net.View(c, u))
				alg.FirstEnabled(net.View(biased, u))
			}
		})
		if allocs != 0 {
			t.Errorf("%s: FirstEnabled allocates %.1f times per sweep, want 0", name, allocs)
		}
	}
	for _, nc := range composedEntries(t, g, net) {
		name, comp := nc.name, nc.comp
		c, err := faults.RandomConfiguration(comp, net, rng)
		if err != nil {
			t.Fatal(err)
		}
		biased := resetBiased(comp, net, c, rng)
		runtime.GC()
		allocs := testing.AllocsPerRun(20, func() {
			for u := 0; u < net.N(); u++ {
				comp.FirstEnabled(net.View(c, u))
				comp.FirstEnabled(net.View(biased, u))
			}
		})
		if allocs != 0 {
			t.Errorf("%s: FirstEnabled allocates %.1f times per sweep, want 0", name, allocs)
		}
	}
}
