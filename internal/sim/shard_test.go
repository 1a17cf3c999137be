package sim_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"sdr/internal/alliance"
	"sdr/internal/churn"
	"sdr/internal/core"
	"sdr/internal/graph"
	"sdr/internal/sim"
	"sdr/internal/spantree"
	"sdr/internal/unison"
)

// The sharded engine's exactness contract: a run with WithShards(k) is
// bit-identical to the sequential run for every k and every daemon, because
// the daemon is consulted once per step on the whole enabled set, exactly as
// in the one-shard loop, and all accounting runs in ascending process order.

// shardWorkloads builds medium-sized instantiations: large enough that the
// requested shard counts survive the 64-alignment cap (7 shards need
// n ≥ 7·64).
func shardWorkloads(tb testing.TB, seed int64) []diffWorkload {
	rng := rand.New(rand.NewSource(seed))
	var ws []diffWorkload

	// U∘SDR on a torus from a fully corrupted configuration, with
	// legitimacy tracking and early stop.
	{
		g := graph.Torus(8, 60)
		net := sim.NewNetwork(g)
		u := unison.New(unison.DefaultPeriod(g.N()))
		comp := core.Compose(u)
		start := randomStart(tb, comp, net, rng)
		ws = append(ws, diffWorkload{
			name:  "unison∘SDR/torus480",
			net:   net,
			alg:   comp,
			start: start,
			opts: []sim.Option{
				sim.WithMaxSteps(600),
				sim.WithLegitimate(core.NormalPredicate(u)),
				sim.WithStopWhenLegitimate(),
			},
		})
	}

	// B∘SDR (BFS spanning tree) on a grid, run to termination (silent).
	{
		g := graph.Grid(20, 25)
		net := sim.NewNetwork(g)
		comp := spantree.NewSelfStabilizing(g, 7)
		start := randomStart(tb, comp, net, rng)
		ws = append(ws, diffWorkload{
			name:  "B∘SDR/grid500",
			net:   net,
			alg:   comp,
			start: start,
			opts:  []sim.Option{sim.WithMaxSteps(5_000)},
		})
	}

	// FGA∘SDR on a random connected graph.
	{
		g := graph.RandomConnected(300, 0.02, rng)
		net := sim.NewNetwork(g)
		comp := alliance.NewSelfStabilizing(alliance.DominatingSet())
		start := randomStart(tb, comp, net, rng)
		ws = append(ws, diffWorkload{
			name:  "FGA∘SDR/random300",
			net:   net,
			alg:   comp,
			start: start,
			opts:  []sim.Option{sim.WithMaxSteps(2_000)},
		})
	}
	return ws
}

// TestShardedBitIdentical is the pinned exactness check: for every
// standard daemon, sharded runs at 2 and 7 shards reproduce the one-shard
// Result and the independent RunReference oracle bit for bit, across the
// paper's instantiations. Every daemon runs to its workload's own step bound
// (legitimacy stop or termination included) except greedy-adversarial,
// whose per-step lookahead is capped at 100 steps to stay affordable under
// the race detector.
func TestShardedBitIdentical(t *testing.T) {
	for _, w := range shardWorkloads(t, 11) {
		for _, df := range sim.StandardDaemonFactories() {
			opts := w.opts
			if df.Name == "greedy-adversarial" {
				opts = append(append([]sim.Option{}, w.opts...), sim.WithMaxSteps(100))
			}
			seq := sim.NewEngine(w.net, w.alg, df.New(5)).Run(w.start, opts...)
			ref := sim.NewEngine(w.net, w.alg, df.New(5)).RunReference(w.start, opts...)
			for _, shards := range []int{2, 7} {
				shardedOpts := append(append([]sim.Option{}, opts...), sim.WithShards(shards))
				sharded, err := sim.NewEngine(w.net, w.alg, df.New(5)).RunE(w.start, shardedOpts...)
				if err != nil {
					t.Fatalf("%s/%s/shards=%d: %v", w.name, df.Name, shards, err)
				}
				name := fmt.Sprintf("%s/%s/shards=%d", w.name, df.Name, shards)
				assertResultsIdentical(t, name, sharded, seq)
				assertResultsIdentical(t, name+"/reference", sharded, ref)
			}
		}
	}
}

// TestShardedHooksMatchSequential extends the exactness check to the
// step-by-step trace: for every standard daemon the sharded loop must hand
// hooks the same activation sets, rule indices and round indices as the
// one-shard loop (at 3 shards) and as the independent RunReference oracle
// (at 2 and 7 shards).
func TestShardedHooksMatchSequential(t *testing.T) {
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
	g := graph.Torus(8, 60)
	net := sim.NewNetwork(g)
	u := unison.New(unison.DefaultPeriod(g.N()))
	comp := core.Compose(u)
	start := randomStart(t, comp, net, rand.New(rand.NewSource(23)))

	compare := func(name string, shSteps, seqSteps []step) {
		t.Helper()
		if len(seqSteps) != len(shSteps) {
			t.Fatalf("%s: %d expected steps vs %d sharded steps", name, len(seqSteps), len(shSteps))
		}
		for i := range seqSteps {
			a, b := shSteps[i], seqSteps[i]
			if a.step != b.step || a.round != b.round {
				t.Fatalf("%s: step %d: step/round %d/%d vs %d/%d", name, i, a.step, a.round, b.step, b.round)
			}
			if len(a.activated) != len(b.activated) {
				t.Fatalf("%s: step %d: %d activated vs %d", name, i, len(a.activated), len(b.activated))
			}
			for j := range a.activated {
				if a.activated[j] != b.activated[j] || a.rules[j] != b.rules[j] {
					t.Fatalf("%s: step %d: (%d,%d) vs (%d,%d)",
						name, i, a.activated[j], a.rules[j], b.activated[j], b.rules[j])
				}
			}
		}
	}

	for _, df := range sim.StandardDaemonFactories() {
		sharded := func(shards int) []step {
			var steps []step
			if _, err := sim.NewEngine(net, comp, df.New(9)).RunE(start,
				sim.WithMaxSteps(200), sim.WithStepHook(record(&steps)), sim.WithShards(shards)); err != nil {
				t.Fatal(err)
			}
			return steps
		}
		var seqSteps, refSteps []step
		sim.NewEngine(net, comp, df.New(9)).Run(start,
			sim.WithMaxSteps(200), sim.WithStepHook(record(&seqSteps)))
		sim.NewEngine(net, comp, df.New(9)).RunReference(start,
			sim.WithMaxSteps(200), sim.WithStepHook(record(&refSteps)))
		compare(df.Name+"/shards=3", sharded(3), seqSteps)
		for _, shards := range []int{2, 7} {
			compare(fmt.Sprintf("%s/reference/shards=%d", df.Name, shards), sharded(shards), refSteps)
		}
	}
}

// TestShardedInjectorCrossShardChurn drives a mid-run topology-churn event
// whose dropped and added edges cross a shard boundary (with 128 processes
// and 2 shards the boundary sits between 63 and 64), plus state corruption
// on both sides of it. For every standard daemon the sharded run must match
// the one-shard run bit for bit, per-event recovery records included (the
// RunReference oracle does not take injectors): the injection boundary
// installs the edited graph and re-seeds the enabled set, so churn is exact
// under sharding too.
func TestShardedInjectorCrossShardChurn(t *testing.T) {
	makeInjector := func() sim.Injector {
		return &scriptedInjector{
			at: 10,
			build: func(sim.InjectionPoint) *sim.Injection {
				injn := &sim.Injection{
					Label:     "cross-shard-churn",
					DropEdges: [][2]int{{63, 64}},
					AddEdges:  [][2]int{{60, 70}},
				}
				for _, proc := range []int{63, 64} {
					injn.SetStates = append(injn.SetStates, sim.StateChange{
						Process: proc,
						State:   core.ComposedState{SDR: core.SDRState{St: core.StatusRB, D: 0}, Inner: unison.ClockState{C: 1}},
					})
				}
				return injn
			},
		}
	}

	start := randomStart(t,
		core.Compose(unison.New(unison.DefaultPeriod(128))),
		sim.NewNetwork(graph.Ring(128)),
		rand.New(rand.NewSource(41)))

	// The injector replaces the network's graph, so each run needs a fresh
	// network of its own.
	runWith := func(df sim.DaemonFactory, shards int) sim.Result {
		g := graph.Ring(128)
		net := sim.NewNetwork(g)
		u := unison.New(unison.DefaultPeriod(g.N()))
		comp := core.Compose(u)
		o := []sim.Option{
			sim.WithMaxSteps(50_000),
			sim.WithLegitimate(core.NormalPredicate(u)),
			sim.WithStopWhenLegitimate(),
			sim.WithInjector(makeInjector()),
			sim.WithShards(shards),
		}
		res, err := sim.NewEngine(net, comp, df.New(13)).RunE(start, o...)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	for _, df := range sim.StandardDaemonFactories() {
		seq := runWith(df, 1)
		sharded := runWith(df, 2)
		assertResultsIdentical(t, "cross-shard-churn/"+df.Name, sharded, seq)
		if len(seq.Events) != 1 || len(sharded.Events) != 1 {
			t.Fatalf("%s: expected exactly one event: sequential %d, sharded %d", df.Name, len(seq.Events), len(sharded.Events))
		}
		a, b := sharded.Events[0], seq.Events[0]
		if a != b {
			t.Fatalf("%s: event records diverged:\n  sharded    %+v\n  sequential %+v", df.Name, a, b)
		}
		if !a.Recovered {
			t.Fatalf("%s: the run never recovered from the cross-shard churn event", df.Name)
		}
	}
}

// TestShardOptionValidation pins the documented invalid combinations: a
// negative shard count, sharding with the random rule-choice policy, and
// sharding with memoization are all reported as errors by RunE (and panics
// by Run), never silently degraded.
func TestShardOptionValidation(t *testing.T) {
	g := graph.Ring(8)
	net := sim.NewNetwork(g)
	u := unison.New(unison.DefaultPeriod(g.N()))
	comp := core.Compose(u)
	start := sim.InitialConfiguration(comp, net)
	eng := sim.NewEngine(net, comp, sim.SynchronousDaemon{})

	cases := []struct {
		name string
		opts []sim.Option
	}{
		{"negative-shards", []sim.Option{sim.WithShards(-1)}},
		{"shards+memo", []sim.Option{
			sim.WithShards(2),
			sim.WithMemo(sim.NewMemoShare(1 << 16)),
		}},
		{"negative-max-steps", []sim.Option{sim.WithMaxSteps(-1)}},
	}
	for _, tc := range cases {
		if _, err := eng.RunE(start, tc.opts...); err == nil {
			t.Errorf("%s: RunE accepted an invalid option combination", tc.name)
		}
	}

	// A huge shard count is not an error: it is capped at ⌈n/64⌉ (here 1)
	// and the run proceeds sequentially.
	res, err := eng.RunE(start, sim.WithShards(1000), sim.WithMaxSteps(100))
	if err != nil {
		t.Fatalf("WithShards(1000) on a small graph: %v", err)
	}
	if res.Steps == 0 {
		t.Fatal("capped sharded run executed no steps")
	}
}

// cloningSynchronous selects every enabled process, like SynchronousDaemon,
// but returns a copy of the enabled list: the engine takes only the list
// itself as it is, so this selection goes through the sanitizer.
type cloningSynchronous struct{}

func (cloningSynchronous) Name() string { return "synchronous-clone" }

func (cloningSynchronous) Select(sel sim.Selection) []int { return slices.Clone(sel.Enabled) }

// TestSynchronousFastPathMatchesSanitizer checks that taking the synchronous
// daemon's selection (the enabled list itself) without sanitizing it changes
// nothing: on a torus, a ring and a caterpillar, at 1, 2 and 3 shards, static
// and under churn that corrupts states and edits the topology, every Result
// field and every step's activations and rules equal those of the same run
// whose selection is sanitized.
func TestSynchronousFastPathMatchesSanitizer(t *testing.T) {
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"torus240", graph.Torus(12, 20)},
		{"ring200", graph.Ring(200)},
		{"caterpillar200", graph.Caterpillar(50, 3)},
	}
	sched := churn.Schedule{Pattern: churn.Periodic, Events: 4, Every: 30,
		EventKinds: []churn.Kind{churn.CorruptFraction, churn.EdgeDrop, churn.NodeCrash, churn.Partition, churn.EdgeAdd, churn.Heal}}
	for _, tg := range graphs {
		u := unison.New(unison.DefaultPeriod(tg.g.N()))
		comp := core.Compose(u)
		start := randomStart(t, comp, sim.NewNetwork(tg.g), rand.New(rand.NewSource(3)))
		for _, shards := range []int{1, 2, 3} {
			for _, churned := range []bool{false, true} {
				label := fmt.Sprintf("%s/shards=%d/churn=%v", tg.name, shards, churned)
				run := func(d sim.Daemon) (sim.Result, [][]int) {
					var steps [][]int
					hook := func(info sim.StepInfo) {
						steps = append(steps, slices.Clone(info.Activated), slices.Clone(info.Rules))
					}
					net := sim.NewNetwork(tg.g)
					opts := []sim.Option{sim.WithMaxSteps(400), sim.WithLegitimate(core.NormalPredicate(u)),
						sim.WithShards(shards), sim.WithStepHook(hook)}
					if churned {
						inj, err := churn.NewInjector(sched, comp, u, net, rand.New(rand.NewSource(4)))
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						opts = append(opts, sim.WithInjector(inj))
					}
					return sim.NewEngine(net, comp, d).Run(start, opts...), steps
				}
				fast, fastSteps := run(sim.SynchronousDaemon{})
				sanitized, sanitizedSteps := run(cloningSynchronous{})
				if !reflect.DeepEqual(fastSteps, sanitizedSteps) {
					t.Fatalf("%s: hooks saw different activations or rules", label)
				}
				if churned && len(fast.Events) != sched.Events {
					t.Fatalf("%s: %d events fired, want %d", label, len(fast.Events), sched.Events)
				}
				if !fast.Final.Equal(sanitized.Final) {
					t.Fatalf("%s: final configurations differ", label)
				}
				fast.Final, sanitized.Final = nil, nil
				if !reflect.DeepEqual(fast, sanitized) {
					t.Fatalf("%s: results differ:\n  fast path %+v\n  sanitized %+v", label, fast, sanitized)
				}
			}
		}
	}
}
