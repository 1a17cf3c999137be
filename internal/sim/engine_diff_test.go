package sim_test

import (
	"math/rand"
	"strconv"
	"testing"

	"sdr/internal/alliance"
	"sdr/internal/core"
	"sdr/internal/faults"
	"sdr/internal/graph"
	"sdr/internal/sim"
	"sdr/internal/spantree"
	"sdr/internal/unison"
)

// The differential tests assert that the incremental engine (Run) produces
// bit-identical Results to the retained reference engine (RunReference) for
// fixed seeds, across every standard daemon and the paper's instantiations:
// the SDR rules through U∘SDR, FGA∘SDR and B∘SDR, plus standalone FGA, the
// BPV baseline and a small algorithm with overlapping rules. Both engines
// consume daemon randomness through the same sorted enabled sets, so any
// divergence in enabled-set maintenance, round accounting or rule choice
// shows up as a Result mismatch.

// assertResultsIdentical compares every field of the two Results (and the
// final configurations by value).
func assertResultsIdentical(t *testing.T, label string, inc, ref sim.Result) {
	t.Helper()
	if inc.Steps != ref.Steps || inc.Moves != ref.Moves || inc.Rounds != ref.Rounds {
		t.Fatalf("%s: steps/moves/rounds = %d/%d/%d, reference %d/%d/%d",
			label, inc.Steps, inc.Moves, inc.Rounds, ref.Steps, ref.Moves, ref.Rounds)
	}
	if inc.Terminated != ref.Terminated || inc.HitStepLimit != ref.HitStepLimit {
		t.Fatalf("%s: terminated/hitLimit = %v/%v, reference %v/%v",
			label, inc.Terminated, inc.HitStepLimit, ref.Terminated, ref.HitStepLimit)
	}
	if inc.LegitimateReached != ref.LegitimateReached ||
		inc.StabilizationMoves != ref.StabilizationMoves ||
		inc.StabilizationRounds != ref.StabilizationRounds ||
		inc.StabilizationSteps != ref.StabilizationSteps ||
		inc.StabilizationMovesPerProcessMax != ref.StabilizationMovesPerProcessMax {
		t.Fatalf("%s: stabilization accounting diverged: %+v vs %+v", label, inc, ref)
	}
	if inc.MaxMovesPerProcess != ref.MaxMovesPerProcess {
		t.Fatalf("%s: MaxMovesPerProcess %d != %d", label, inc.MaxMovesPerProcess, ref.MaxMovesPerProcess)
	}
	for u := range inc.MovesPerProcess {
		if inc.MovesPerProcess[u] != ref.MovesPerProcess[u] {
			t.Fatalf("%s: MovesPerProcess[%d] = %d, reference %d",
				label, u, inc.MovesPerProcess[u], ref.MovesPerProcess[u])
		}
	}
	if len(inc.MovesPerRule) != len(ref.MovesPerRule) {
		t.Fatalf("%s: MovesPerRule %v != %v", label, inc.MovesPerRule, ref.MovesPerRule)
	}
	for rule, m := range ref.MovesPerRule {
		if inc.MovesPerRule[rule] != m {
			t.Fatalf("%s: MovesPerRule[%q] = %d, reference %d", label, rule, inc.MovesPerRule[rule], m)
		}
	}
	if !inc.Final.Equal(ref.Final) {
		t.Fatalf("%s: final configurations differ:\n  incremental %s\n  reference   %s",
			label, inc.Final, ref.Final)
	}
}

// diffWorkload is one (algorithm, start, options) point of the parity sweep.
type diffWorkload struct {
	name  string
	net   *sim.Network
	alg   sim.Algorithm
	start *sim.Configuration
	opts  []sim.Option
}

// randomStart draws a configuration uniformly from an enumerable algorithm's
// state space.
func randomStart(tb testing.TB, alg sim.Algorithm, net *sim.Network, rng *rand.Rand) *sim.Configuration {
	tb.Helper()
	c, err := faults.RandomConfiguration(alg, net, rng)
	if err != nil {
		tb.Fatal(err)
	}
	return c
}

// diffWorkloads builds the instantiation sweep for one seed. Step bounds are
// small enough to keep the sweep fast but large enough that most runs
// terminate (both outcomes are compared either way).
func diffWorkloads(tb testing.TB, seed int64) []diffWorkload {
	rng := rand.New(rand.NewSource(seed))
	var ws []diffWorkload

	// U∘SDR from a fully corrupted configuration, with legitimacy tracking.
	{
		g := graph.RandomConnected(10, 0.3, rng)
		net := sim.NewNetwork(g)
		u := unison.New(unison.DefaultPeriod(g.N()))
		comp := core.Compose(u)
		start := randomStart(tb, comp, net, rng)
		ws = append(ws, diffWorkload{
			name:  "unison∘SDR",
			net:   net,
			alg:   comp,
			start: start,
			opts: []sim.Option{
				sim.WithMaxSteps(20_000),
				sim.WithLegitimate(core.NormalPredicate(u)),
				sim.WithStopWhenLegitimate(),
			},
		})
	}

	// FGA∘SDR from a corrupted configuration, run to termination.
	{
		g := graph.RandomConnected(9, 0.5, rng)
		net := sim.NewNetwork(g)
		comp := alliance.NewSelfStabilizing(alliance.DominatingSet())
		start := randomStart(tb, comp, net, rng)
		ws = append(ws, diffWorkload{
			name:  "FGA∘SDR",
			net:   net,
			alg:   comp,
			start: start,
			opts:  []sim.Option{sim.WithMaxSteps(50_000)},
		})
	}

	// B∘SDR (BFS spanning tree) from a corrupted configuration.
	{
		g := graph.Grid(3, 3)
		net := sim.NewNetwork(g)
		comp := spantree.NewSelfStabilizing(g, int(seed)%g.N())
		start := randomStart(tb, comp, net, rng)
		ws = append(ws, diffWorkload{
			name:  "B∘SDR",
			net:   net,
			alg:   comp,
			start: start,
			opts:  []sim.Option{sim.WithMaxSteps(50_000)},
		})
	}

	// Standalone FGA from its pre-defined initial configuration.
	{
		g := graph.RandomConnected(8, 0.5, rng)
		net := sim.NewNetwork(g)
		alg := core.NewStandalone(alliance.NewFGA(alliance.GlobalDefensiveAlliance()))
		ws = append(ws, diffWorkload{
			name:  "FGA-standalone",
			net:   net,
			alg:   alg,
			start: sim.InitialConfiguration(alg, net),
			opts:  []sim.Option{sim.WithMaxSteps(50_000)},
		})
	}

	// The BPV baseline (non-terminating) under a step bound, with
	// legitimacy tracking but no early stop, so the bounded-suffix and
	// step-limit paths are compared too.
	{
		g := graph.Ring(8)
		net := sim.NewNetwork(g)
		bpv := unison.NewBPVFor(g)
		start := randomStart(tb, bpv, net, rng)
		ws = append(ws, diffWorkload{
			name:  "BPV",
			net:   net,
			alg:   bpv,
			start: start,
			opts: []sim.Option{
				sim.WithMaxSteps(300),
				sim.WithLegitimate(bpv.LegitimatePredicate()),
			},
		})
	}
	// Overlapping rules from random levels: whenever a neighbour is two
	// levels up, both rules are enabled, so the rule-choice policy decides.
	{
		g := graph.RandomConnected(10, 0.3, rng)
		net := sim.NewNetwork(g)
		states := make([]sim.State, g.N())
		for u := range states {
			states[u] = levelState(rng.Intn(levelTop + 1))
		}
		ws = append(ws, diffWorkload{
			name:  "levels",
			net:   net,
			alg:   levels{},
			start: sim.NewConfiguration(states),
			opts:  []sim.Option{sim.WithMaxSteps(50_000)},
		})
	}
	return ws
}

// levelState is the state of the levels algorithm.
type levelState int

func (s levelState) Equal(o sim.State) bool {
	t, ok := o.(levelState)
	return ok && t == s
}
func (s levelState) String() string { return strconv.Itoa(int(s)) }

const levelTop = 4

// levels is a silent algorithm whose rules overlap: a process below
// levelTop steps up one level, and a process with a neighbour at least two
// levels up may instead catch up to its highest neighbour. Every move raises
// a level, so every execution terminates with all processes at levelTop.
type levels struct{}

func (levels) Name() string { return "levels" }

func (levels) Rules() []sim.Rule {
	return []sim.Rule{
		{
			Name:   "step",
			Guard:  func(v sim.View) bool { return v.Self().(levelState) < levelTop },
			Action: func(v sim.View) sim.State { return v.Self().(levelState) + 1 },
		},
		{
			Name:   "catch-up",
			Guard:  func(v sim.View) bool { return highestNeighbor(v) > v.Self().(levelState)+1 },
			Action: func(v sim.View) sim.State { return highestNeighbor(v) },
		},
	}
}

func (levels) InitialState(int, *sim.Network) sim.State { return levelState(0) }

func highestNeighbor(v sim.View) levelState {
	best := levelState(0)
	for i := 0; i < v.Degree(); i++ {
		best = max(best, v.Neighbor(i).(levelState))
	}
	return best
}

// TestEngineMatchesReference is the golden parity sweep: every standard
// daemon × every instantiation × several fixed seeds.
func TestEngineMatchesReference(t *testing.T) {
	seeds := []int64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		for _, df := range sim.StandardDaemonFactories() {
			for _, w := range diffWorkloads(t, seed) {
				// Fresh daemons from the same factory seed: daemons are
				// stateful, so each engine needs its own instance.
				inc := sim.NewEngine(w.net, w.alg, df.New(seed)).Run(w.start, w.opts...)
				ref := sim.NewEngine(w.net, w.alg, df.New(seed)).RunReference(w.start, w.opts...)
				assertResultsIdentical(t, w.name+"/"+df.Name, inc, ref)
			}
		}
	}
}

// TestEngineHooksMatchReference compares the step-by-step trace the hooks
// observe (activated processes, rule indices, rounds), not just the end-of-run
// summary.
func TestEngineHooksMatchReference(t *testing.T) {
	type step struct {
		step, round int
		activated   []int
		rules       []int
	}
	record := func(dst *[]step) sim.StepHook {
		return func(info sim.StepInfo) {
			*dst = append(*dst, step{
				step:      info.Step,
				round:     info.Round,
				activated: append([]int(nil), info.Activated...),
				rules:     append([]int(nil), info.Rules...),
			})
		}
	}
	g := graph.RandomConnected(8, 0.4, rand.New(rand.NewSource(17)))
	net := sim.NewNetwork(g)
	comp := alliance.NewSelfStabilizing(alliance.DominatingSet())
	start := randomStart(t, comp, net, rand.New(rand.NewSource(18)))
	for _, df := range sim.StandardDaemonFactories() {
		var incSteps, refSteps []step
		sim.NewEngine(net, comp, df.New(4)).Run(start,
			sim.WithMaxSteps(20_000), sim.WithStepHook(record(&incSteps)))
		sim.NewEngine(net, comp, df.New(4)).RunReference(start,
			sim.WithMaxSteps(20_000), sim.WithStepHook(record(&refSteps)))
		if len(incSteps) != len(refSteps) {
			t.Fatalf("%s: %d steps vs %d reference steps", df.Name, len(incSteps), len(refSteps))
		}
		for i := range incSteps {
			a, b := incSteps[i], refSteps[i]
			if a.step != b.step || a.round != b.round {
				t.Fatalf("%s step %d: step/round %d/%d vs %d/%d", df.Name, i, a.step, a.round, b.step, b.round)
			}
			if len(a.activated) != len(b.activated) {
				t.Fatalf("%s step %d: activated %v vs %v", df.Name, i, a.activated, b.activated)
			}
			for j := range a.activated {
				if a.activated[j] != b.activated[j] || a.rules[j] != b.rules[j] {
					t.Fatalf("%s step %d: (%d,%d) vs (%d,%d)",
						df.Name, i, a.activated[j], a.rules[j], b.activated[j], b.rules[j])
				}
			}
		}
	}
}
