package sim_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"sdr/internal/churn"
	"sdr/internal/core"
	"sdr/internal/graph"
	"sdr/internal/sim"
	"sdr/internal/unison"
)

// legitimacyOf is the per-process legitimacy predicate the workload is
// judged by here: the normal configurations for the SDR compositions, the
// drift bound for BPV, the top level for levels (nil for the rest).
func legitimacyOf(w diffWorkload) sim.ProcessPredicate {
	switch alg := w.alg.(type) {
	case *core.Composed:
		return core.NormalPredicate(alg.Inner())
	case *unison.BPV:
		return alg.LegitimatePredicate()
	case levels:
		return func(v sim.View) bool { return v.Self().(levelState) == levelTop }
	}
	return nil
}

// globalAccount recomputes a run's legitimacy accounting from the global
// predicate, the per-process predicate at every process of the whole
// configuration, evaluated at every boundary the run passes: the start, the
// After of every step (seen by a hook) and the configuration after every
// injected event (seen by the next Inject call at the same boundary). It
// shares nothing with the engine's incremental verdict.
type globalAccount struct {
	legit    sim.Predicate
	injected bool

	steps, moves, rounds int // rounds: the conservative count at the boundary
	perProcess           []int
	res                  sim.Result
	open                 []openedAt // the unrecovered events
}

// openedAt is an unrecovered event: its index in res.Events and the
// counters when it fired.
type openedAt struct {
	idx, steps, moves, rounds int
}

func newGlobalAccount(net *sim.Network, p sim.ProcessPredicate, injected bool, start *sim.Configuration) *globalAccount {
	a := &globalAccount{legit: sim.AllProcesses(net, p), injected: injected, perProcess: make([]int, net.N())}
	a.res.StabilizationMoves, a.res.StabilizationRounds, a.res.StabilizationSteps = -1, -1, -1
	a.res.StabilizationMovesPerProcessMax = -1
	a.boundary(start)
	return a
}

// boundary records the verdict on c at the current counters.
func (a *globalAccount) boundary(c *sim.Configuration) bool {
	ok := a.legit(c)
	if ok && !a.res.LegitimateReached {
		a.res.LegitimateReached = true
		a.res.StabilizationSteps, a.res.StabilizationMoves, a.res.StabilizationRounds = a.steps, a.moves, a.rounds
		a.res.StabilizationMovesPerProcessMax = 0
		for _, m := range a.perProcess {
			a.res.StabilizationMovesPerProcessMax = max(a.res.StabilizationMovesPerProcessMax, m)
		}
	}
	if ok {
		for _, o := range a.open {
			ev := &a.res.Events[o.idx]
			ev.Recovered = true
			ev.RecoverySteps = a.steps - o.steps
			ev.RecoveryMoves = a.moves - o.moves
			ev.RecoveryRounds = a.rounds - o.rounds
		}
		a.open = a.open[:0]
	}
	return ok
}

// hook accounts one step. A round still in progress after the step counts
// in full, so the conservative round count after step s is its Round + 1.
func (a *globalAccount) hook(info sim.StepInfo) {
	a.steps++
	a.moves += len(info.Activated)
	for _, u := range info.Activated {
		a.perProcess[u]++
	}
	a.rounds = info.Round + 1
	if a.boundary(info.After) && a.injected {
		a.res.LegitimateSteps++
	}
}

// watch wraps the run's injector: an event opens a recovery record with the
// verdict before it, and the next call at the same boundary sees the
// configuration the event left.
type watch struct {
	inner   sim.Injector
	a       *globalAccount
	pending bool
}

func (w *watch) Inject(p sim.InjectionPoint) *sim.Injection {
	if w.pending {
		w.pending = false
		w.a.boundary(p.Config)
	}
	injn := w.inner.Inject(p)
	if injn == nil {
		return nil
	}
	a := w.a
	a.res.Events = append(a.res.Events, sim.EventRecovery{
		Label: injn.Label, Step: a.steps, Round: a.rounds, LegitimateBefore: a.legit(p.Config),
		RecoverySteps: -1, RecoveryMoves: -1, RecoveryRounds: -1,
	})
	a.open = append(a.open, openedAt{len(a.res.Events) - 1, a.steps, a.moves, a.rounds})
	w.pending = true
	return injn
}

func (w *watch) Done() bool { return w.inner.Done() }

// TestIncrementalLegitimacyMatchesGlobal checks the engine's incremental,
// lazy legitimacy verdict against the global predicate evaluated at every
// boundary: over diffWorkloads under every standard daemon, static and
// churned (state corruption, crashes and topology events), LegitimateSteps,
// the Stabilization* fields and every event's record must equal what the
// global predicate gives. Churned runs use a fresh network each, since churn
// swaps the network's graph.
func TestIncrementalLegitimacyMatchesGlobal(t *testing.T) {
	seeds := []int64{1, 2}
	if testing.Short() {
		seeds = seeds[:1]
	}
	kinds := [][]churn.Kind{
		{churn.CorruptFraction, churn.EdgeDrop, churn.NodeCrash, churn.Partition, churn.EdgeAdd, churn.Heal},
		{churn.NodeCrash, churn.EdgeDrop, churn.Partition, churn.EdgeAdd, churn.Heal},
	}
	checked, recoveries, available := 0, 0, 0
	for _, seed := range seeds {
		for _, df := range sim.StandardDaemonFactories() {
			for _, w := range diffWorkloads(t, seed) {
				p := legitimacyOf(w)
				if p == nil {
					continue
				}
				for _, churned := range []bool{false, true} {
					label := fmt.Sprintf("%s/%s/seed=%d/churn=%v", w.name, df.Name, seed, churned)
					net := sim.NewNetwork(w.net.Graph())
					a := newGlobalAccount(net, p, churned, w.start)
					opts := []sim.Option{sim.WithMaxSteps(3_000), sim.WithLegitimate(p), sim.WithStepHook(a.hook)}
					if churned {
						var inner core.Resettable
						if comp, ok := w.alg.(*core.Composed); ok {
							inner = comp.Inner()
						}
						sched := churn.Schedule{Pattern: churn.Periodic, Events: 6, Every: 40}
						var inj *churn.Injector
						var err error
						for _, k := range kinds {
							sched.EventKinds = k
							if inj, err = churn.NewInjector(sched, w.alg, inner, net, rand.New(rand.NewSource(seed))); err == nil {
								break
							}
						}
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						opts = append(opts, sim.WithInjector(&watch{inner: inj, a: a}))
					}
					res, err := sim.NewEngine(net, w.alg, df.New(seed)).RunE(w.start, opts...)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if res.Steps != a.steps || res.Moves != a.moves {
						t.Fatalf("%s: the hook saw %d steps and %d moves, the run %d and %d", label, a.steps, a.moves, res.Steps, res.Moves)
					}
					got := sim.Result{
						LegitimateReached:               res.LegitimateReached,
						StabilizationMoves:              res.StabilizationMoves,
						StabilizationRounds:             res.StabilizationRounds,
						StabilizationSteps:              res.StabilizationSteps,
						StabilizationMovesPerProcessMax: res.StabilizationMovesPerProcessMax,
						LegitimateSteps:                 res.LegitimateSteps,
						Events:                          res.Events,
					}
					if !reflect.DeepEqual(got, a.res) {
						t.Fatalf("%s: incremental legitimacy accounting differs from the global predicate:\n  engine %+v\n  global %+v", label, got, a.res)
					}
					if churned && len(res.Events) == 0 {
						t.Fatalf("%s: no event fired", label)
					}
					for _, ev := range res.Events {
						if ev.Recovered && ev.RecoverySteps > 0 {
							recoveries++
						}
					}
					if res.LegitimateSteps > 0 {
						available++
					}
					checked++
				}
			}
		}
	}
	t.Logf("%d runs, %d recoveries that took steps, %d runs with legitimate steps", checked, recoveries, available)
	if checked == 0 || recoveries == 0 || available == 0 {
		t.Fatal("the runs exercised no recovery or no legitimate step")
	}
}

// BenchmarkEngineLegitimacyChurn measures the engine with a legitimacy
// predicate decided after every step: U∘SDR on a 16×16 torus under the
// distributed-random daemon, with periodic state corruption, as churned
// campaign trials run it. It lives in the external test package because
// package sim cannot import core.
func BenchmarkEngineLegitimacyChurn(b *testing.B) {
	g := graph.Torus(16, 16)
	u := unison.New(unison.DefaultPeriod(g.N()))
	comp := core.Compose(u)
	sched := churn.Schedule{Pattern: churn.Periodic, Events: 4, Every: 150, EventKinds: []churn.Kind{churn.CorruptFraction}}
	start := randomStart(b, comp, sim.NewNetwork(g), rand.New(rand.NewSource(1)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net := sim.NewNetwork(g)
		inj, err := churn.NewInjector(sched, comp, u, net, rand.New(rand.NewSource(2)))
		if err != nil {
			b.Fatal(err)
		}
		res := sim.NewEngine(net, comp, sim.NewDistributedRandomDaemon(rand.New(rand.NewSource(3)), 0.5)).Run(start,
			sim.WithMaxSteps(20_000), sim.WithLegitimate(core.NormalPredicate(u)),
			sim.WithInjector(inj), sim.WithStopWhenLegitimate())
		if len(res.Events) != sched.Events || res.LegitimateSteps == 0 {
			b.Fatalf("%d events, %d legitimate steps", len(res.Events), res.LegitimateSteps)
		}
	}
}

// BenchmarkEngineComposedSynchronous measures the composed apply path: U∘SDR
// on a 64×64 torus under the synchronous daemon on two shards, 32 steps from
// a random-all start, so that every step moves most processes through the
// composition's box table. It needs core, hence the external test package.
func BenchmarkEngineComposedSynchronous(b *testing.B) {
	g := graph.Torus(64, 64)
	net := sim.NewNetwork(g)
	comp := core.Compose(unison.New(unison.DefaultPeriod(g.N())))
	start := randomStart(b, comp, net, rand.New(rand.NewSource(1)))
	eng := sim.NewEngine(net, comp, sim.SynchronousDaemon{})
	b.ReportAllocs()
	for b.Loop() {
		if res := eng.Run(start, sim.WithMaxSteps(32), sim.WithShards(2)); res.Steps != 32 {
			b.Fatalf("ran %d steps, want 32", res.Steps)
		}
	}
}
