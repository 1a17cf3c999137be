package core_test

import (
	"math/rand"
	"reflect"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"sdr/internal/core"
	"sdr/internal/faults"
	"sdr/internal/graph"
	"sdr/internal/sim"
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

// plainAction is the specification of the composed rule actions: the state
// rule i computes at v, boxed afresh.
func plainAction(comp *core.Composed, i int, v sim.View) sim.State {
	self := v.Self().(core.ComposedState)
	reset := func() sim.State { return comp.Inner().ResetState(v.Process(), v.Network()) }
	switch name := comp.Rules()[i].Name; name {
	case core.RuleRB:
		d := 0
		if !strings.HasSuffix(comp.Name(), "-uncoop") {
			d = -1
			for j := 0; j < v.Degree(); j++ {
				if nb := core.SDRPart(v.Neighbor(j)); nb.St == core.StatusRB && (d < 0 || nb.D < d) {
					d = nb.D
				}
			}
			d++
		}
		return core.ComposedState{SDR: core.SDRState{St: core.StatusRB, D: d}, Inner: reset()}
	case core.RuleRF:
		return core.ComposedState{SDR: core.SDRState{St: core.StatusRF, D: self.SDR.D}, Inner: self.Inner}
	case core.RuleC:
		return core.ComposedState{SDR: core.SDRState{St: core.StatusC, D: self.SDR.D}, Inner: self.Inner}
	case core.RuleR:
		return core.ComposedState{SDR: core.SDRState{St: core.StatusRB, D: 0}, Inner: reset()}
	default:
		for _, ir := range comp.Inner().InnerRules() {
			if core.InnerRuleName(ir.Name) == name {
				return core.ComposedState{SDR: self.SDR, Inner: ir.Action(core.NewInnerView(v))}
			}
		}
		panic("unknown rule " + name)
	}
}

// farDistances returns a copy of c with every distance moved up by 2^20, so
// that no state's Key64 fits and the actions take the plain path.
func farDistances(c *sim.Configuration) *sim.Configuration {
	out := c.Clone()
	for u := 0; u < c.N(); u++ {
		cs := c.State(u).(core.ComposedState)
		cs.SDR.D += 1 << 20
		out.SetState(u, cs)
	}
	return out
}

// TestActionsMatchPlainConstruction checks, for every registered
// composition on ring, torus and random graphs, that every enabled rule's
// action returns a state equal (Equal and ==) to a plain construction of
// the same value, twice in a row, so that the second answer comes from the
// box table. Starts are uniformly random, reset-biased with out-of-range
// statuses, and the reset-biased ones with distances too large for Key64.
func TestActionsMatchPlainConstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	hits := make(map[string]map[int]int) // per composition: SDR rule index, or 4 for inner rules
	unkeyed := make(map[string]int)
	for _, gr := range indexerGraphs(rng) {
		net := sim.NewNetwork(gr.g)
		for _, nc := range composedEntries(t, gr.g, net) {
			name, comp := nc.name, nc.comp
			rules := comp.Rules()
			if hits[name] == nil {
				hits[name] = make(map[int]int)
			}
			for trial := 0; trial < 60; trial++ {
				c, err := faults.RandomConfiguration(comp, net, rng)
				if err != nil {
					t.Fatalf("%s/%s: %v", name, gr.name, err)
				}
				biased := resetBiased(comp, net, c, rng)
				for _, cfg := range []*sim.Configuration{c, biased, farDistances(biased)} {
					for u := 0; u < net.N(); u++ {
						v := net.View(cfg, u)
						for i := range rules {
							if !rules[i].Guard(v) {
								continue
							}
							want := plainAction(comp, i, v)
							for range 2 {
								got := rules[i].Action(v)
								if !got.Equal(want) || got != want {
									t.Fatalf("%s/%s: process %d rule %s returned %v, want %v",
										name, gr.name, u, rules[i].Name, got, want)
								}
							}
							hits[name][min(i, 4)]++
							if _, ok := sim.StateKey64(want); !ok {
								unkeyed[name]++
							}
						}
					}
				}
			}
		}
	}
	for name, h := range hits {
		if len(h) != 5 || unkeyed[name] == 0 {
			t.Errorf("%s: rules reached %v (RB, RF, C, R, inner), %d states with no key", name, h, unkeyed[name])
		}
	}
}

// composedTorusRun runs synchronous U∘SDR on a 32×32 torus from a random-all
// start for the given steps.
func composedTorusRun(comp *core.Composed, net *sim.Network, start *sim.Configuration, steps int, opts ...sim.Option) sim.Result {
	return sim.NewEngine(net, comp, sim.SynchronousDaemon{}).Run(start, append([]sim.Option{sim.WithMaxSteps(steps)}, opts...)...)
}

// TestComposedSteadyStateAllocationFree pins that a composed move allocates
// nothing once the box table holds its state: synchronous U∘SDR on a 32×32
// torus, where a 2k-step run must allocate no more than a k-step run. The
// runs are deterministic, so AllocsPerRun's warm-up run boxes every state
// the measured runs move to. From a random-all start the clocks stay below
// 256 within 2k steps, and Go boxes such small values without allocating.
// From a normal configuration with every clock at 300, every process ticks
// every step past 255, so Algorithm U's tick must take its clock box from
// the table too. A rule action that boxes a fresh state per move fails it.
// The last case attaches a reset observer, primed at the start of each run,
// which must not allocate per step either.
func TestComposedSteadyStateAllocationFree(t *testing.T) {
	if raceEnabled() {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	g := graph.Torus(32, 32)
	net := sim.NewNetwork(g)
	comp := core.Compose(unison.New(unison.DefaultPeriod(g.N())))
	normal := make([]sim.State, net.N())
	for u := range normal {
		normal[u] = core.ComposedState{SDR: core.CleanSDRState(), Inner: unison.ClockState{C: 300}}
	}
	random := randomStart(t, comp, net, rand.New(rand.NewSource(1)))
	for _, tc := range []struct {
		name    string
		start   *sim.Configuration
		k       int
		observe bool
	}{
		{"random-all", random, 100, false},
		{"clocks-from-300", sim.NewConfiguration(normal), 200, false},
		{"random-all+observer", random, 100, true},
	} {
		allocs := func(steps int) float64 {
			// A collection inside the measured runs can add a malloc;
			// starting from a collected heap leaves none of them room to.
			runtime.GC()
			return testing.AllocsPerRun(3, func() {
				var opts []sim.Option
				if tc.observe {
					o := core.NewObserver(comp.Inner(), net)
					o.Prime(tc.start)
					opts = append(opts, sim.WithStepHook(o.Hook()))
				}
				if res := composedTorusRun(comp, net, tc.start, steps, opts...); res.Steps != steps || res.Moves < steps*net.N()/2 {
					t.Fatalf("%s: ran %d steps with %d moves, want %d steps", tc.name, res.Steps, res.Moves, steps)
				}
			})
		}
		if once, twice := allocs(tc.k), allocs(2*tc.k); twice > once {
			t.Errorf("%s: %d steps allocate %v times, %d steps %v times", tc.name, tc.k, once, 2*tc.k, twice)
		}
	}
}

// TestShardedComposedRunMatchesOneShard runs the same U∘SDR torus run on
// four shards and on one. The four-shard run goes first, so that its shards
// publish the run's states to the shared box table concurrently (run it
// under -race). The results must be identical.
func TestShardedComposedRunMatchesOneShard(t *testing.T) {
	g := graph.Torus(32, 32)
	net := sim.NewNetwork(g)
	comp := core.Compose(unison.New(unison.DefaultPeriod(g.N())))
	start := randomStart(t, comp, net, rand.New(rand.NewSource(2)))
	four := composedTorusRun(comp, net, start, 120, sim.WithShards(4))
	one := composedTorusRun(comp, net, start, 120)
	if !one.Final.Equal(four.Final) {
		t.Fatal("the sharded run ended in another configuration")
	}
	if !reflect.DeepEqual(one, four) {
		t.Errorf("the sharded run's result differs:\none:  %+v\nfour: %+v", one, four)
	}
}

// raceEnabled reports whether the test binary was built with -race.
func raceEnabled() bool {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" {
				return s.Value == "true"
			}
		}
	}
	return false
}
