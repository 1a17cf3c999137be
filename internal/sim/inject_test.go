package sim_test

import (
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"sdr/internal/alliance"
	"sdr/internal/churn"
	"sdr/internal/core"
	"sdr/internal/graph"
	"sdr/internal/sim"
	"sdr/internal/unison"
)

// emptyInjector is an injector with no events: an injected run with it must
// behave exactly like an uninjected one.
type emptyInjector struct{}

func (emptyInjector) Inject(sim.InjectionPoint) *sim.Injection { return nil }
func (emptyInjector) Done() bool                               { return true }

// scriptedInjector fires a single scripted event at the first boundary at or
// after step at (or at a terminal configuration, via the engine's
// fast-forward).
type scriptedInjector struct {
	at    int
	build func(p sim.InjectionPoint) *sim.Injection
	fired bool
}

func (s *scriptedInjector) Inject(p sim.InjectionPoint) *sim.Injection {
	if s.fired || (p.Step < s.at && !p.Terminal) {
		return nil
	}
	s.fired = true
	return s.build(p)
}

func (s *scriptedInjector) Done() bool { return s.fired }

// TestEmptyInjectorMatchesReference pins the static-case oracle: a run with
// an event-free injector produces bit-identical Results to RunReference (and
// hence to the uninjected Run) across every standard daemon and workload.
func TestEmptyInjectorMatchesReference(t *testing.T) {
	for _, df := range sim.StandardDaemonFactories() {
		for _, w := range diffWorkloads(t, 1) {
			injected := sim.NewEngine(w.net, w.alg, df.New(1)).
				Run(w.start, append(append([]sim.Option{}, w.opts...), sim.WithInjector(emptyInjector{}))...)
			ref := sim.NewEngine(w.net, w.alg, df.New(1)).RunReference(w.start, w.opts...)
			assertResultsIdentical(t, w.name+"/"+df.Name+"/empty-injector", injected, ref)
			if len(injected.Events) != 0 {
				t.Fatalf("%s/%s: event-free injector recorded events: %+v", w.name, df.Name, injected.Events)
			}
		}
	}
}

// TestReStabilizationAccounting is the re-stabilization contract: a run that
// stabilizes, is perturbed, and recovers must report the *first*
// stabilization in the Stabilization* fields (identical to the unperturbed
// run) and the recovery separately in the per-event record.
func TestReStabilizationAccounting(t *testing.T) {
	g := graph.Ring(8)
	net := sim.NewNetwork(g)
	u := unison.New(unison.DefaultPeriod(g.N()))
	comp := core.Compose(u)
	start := randomStart(t, comp, net, rand.New(rand.NewSource(21)))
	legit := core.NormalPredicate(u)
	opts := func(extra ...sim.Option) []sim.Option {
		return append([]sim.Option{
			sim.WithMaxSteps(100_000),
			sim.WithLegitimate(legit),
			sim.WithStopWhenLegitimate(),
		}, extra...)
	}

	static := sim.NewEngine(net, comp, sim.SynchronousDaemon{}).Run(start, opts()...)
	if !static.LegitimateReached {
		t.Fatal("baseline run never stabilized")
	}

	// Perturb well after the first stabilization: corrupt three processes
	// with the last state of their enumerated spaces.
	inj := &scriptedInjector{
		at: static.StabilizationSteps + 25,
		build: func(p sim.InjectionPoint) *sim.Injection {
			injn := &sim.Injection{Label: "scripted-corrupt"}
			for _, proc := range []int{1, 4, 6} {
				last := comp.StateAt(proc, p.Net, comp.StateCount(proc, p.Net)-1)
				injn.SetStates = append(injn.SetStates, sim.StateChange{Process: proc, State: last})
			}
			return injn
		},
	}
	perturbed := sim.NewEngine(net, comp, sim.SynchronousDaemon{}).Run(start, opts(sim.WithInjector(inj))...)

	// First stabilization: unchanged, bit-identical to the static run.
	if perturbed.StabilizationMoves != static.StabilizationMoves ||
		perturbed.StabilizationRounds != static.StabilizationRounds ||
		perturbed.StabilizationSteps != static.StabilizationSteps {
		t.Errorf("first stabilization changed under churn: moves/rounds/steps %d/%d/%d, static %d/%d/%d",
			perturbed.StabilizationMoves, perturbed.StabilizationRounds, perturbed.StabilizationSteps,
			static.StabilizationMoves, static.StabilizationRounds, static.StabilizationSteps)
	}

	// The recovery is reported separately, per event.
	if len(perturbed.Events) != 1 {
		t.Fatalf("recorded %d events, want 1: %+v", len(perturbed.Events), perturbed.Events)
	}
	ev := perturbed.Events[0]
	if ev.Label != "scripted-corrupt" {
		t.Errorf("event label %q", ev.Label)
	}
	if !ev.LegitimateBefore {
		t.Errorf("the event fired after stabilization, LegitimateBefore must hold: %+v", ev)
	}
	if !ev.Recovered {
		t.Fatalf("the system never recovered from the event: %+v", ev)
	}
	if ev.RecoverySteps <= 0 || ev.RecoveryMoves <= 0 || ev.RecoveryRounds <= 0 {
		t.Errorf("corrupting three unison clocks must cost a positive recovery: %+v", ev)
	}
	if ev.Step < static.StabilizationSteps {
		t.Errorf("event at step %d, before the first stabilization at %d", ev.Step, static.StabilizationSteps)
	}

	// The run only stops once the injector is done and the system is
	// legitimate again, so the final step count covers the recovery.
	if perturbed.Steps < ev.Step+ev.RecoverySteps {
		t.Errorf("run ended at step %d, before the recovery at %d+%d",
			perturbed.Steps, ev.Step, ev.RecoverySteps)
	}
	if perturbed.LegitimateSteps <= 0 || perturbed.LegitimateSteps >= perturbed.Steps {
		t.Errorf("availability %d/%d should be strictly between 0 and 1",
			perturbed.LegitimateSteps, perturbed.Steps)
	}
}

// TestTopologyInjectionMatchesFreshRun checks that the engine's incremental
// state is correctly re-seeded after a topology event: the suffix of an
// injected run equals a reference run started from the post-event
// configuration on an equally mutated graph (the synchronous daemon is
// stateless, so the suffix is exactly reproducible).
func TestTopologyInjectionMatchesFreshRun(t *testing.T) {
	g := graph.Ring(8)
	net := sim.NewNetwork(g)
	u := unison.New(unison.DefaultPeriod(g.N()))
	comp := core.Compose(u)
	start := randomStart(t, comp, net, rand.New(rand.NewSource(31)))

	const eventAt, maxSteps = 40, 400
	var snapshot *sim.Configuration
	var movesAtEvent, stepAtEvent int
	inj := &scriptedInjector{
		at: eventAt,
		build: func(p sim.InjectionPoint) *sim.Injection {
			snapshot = p.Config.Clone()
			movesAtEvent, stepAtEvent = p.Moves, p.Step
			return &sim.Injection{
				Label:     "rewire",
				DropEdges: [][2]int{{0, 1}},
				AddEdges:  [][2]int{{0, 4}},
			}
		},
	}
	injected := sim.NewEngine(net, comp, sim.SynchronousDaemon{}).
		Run(start, sim.WithMaxSteps(maxSteps), sim.WithInjector(inj))
	if snapshot == nil {
		t.Fatal("the event never fired")
	}

	// Reference: the same edit applied to the starting graph, which the run
	// must have left untouched, reference engine from the snapshot, for the
	// remaining step budget.
	if !g.Equal(graph.Ring(8)) {
		t.Fatal("the injected run modified the graph it started on")
	}
	refGraph, err := g.WithEdits([][2]int{{0, 1}}, [][2]int{{0, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if !net.Graph().Equal(refGraph) {
		t.Fatal("the network does not hold the edited topology after the run")
	}
	refNet := sim.NewNetwork(refGraph)
	ref := sim.NewEngine(refNet, comp, sim.SynchronousDaemon{}).
		RunReference(snapshot, sim.WithMaxSteps(maxSteps-stepAtEvent))

	if !injected.Final.Equal(ref.Final) {
		t.Errorf("post-event suffix diverged:\n  injected %s\n  reference %s", injected.Final, ref.Final)
	}
	if got, want := injected.Moves-movesAtEvent, ref.Moves; got != want {
		t.Errorf("suffix moves %d, reference %d", got, want)
	}
	if got, want := injected.Steps-stepAtEvent, ref.Steps; got != want {
		t.Errorf("suffix steps %d, reference %d", got, want)
	}
}

// TestInjectionFastForwardAtTerminal checks that a terminating run does not
// end while the injector still has pending events: the event fires at the
// terminal boundary and the run continues.
func TestInjectionFastForwardAtTerminal(t *testing.T) {
	g := graph.RandomConnected(8, 0.5, rand.New(rand.NewSource(41)))
	net := sim.NewNetwork(g)
	comp := alliance.NewSelfStabilizing(alliance.DominatingSet())
	start := sim.InitialConfiguration(comp, net)

	inj := &scriptedInjector{
		at: 1 << 30, // far beyond termination: only the fast-forward can fire it
		build: func(p sim.InjectionPoint) *sim.Injection {
			if !p.Terminal {
				t.Errorf("the scripted event should only fire at the terminal boundary")
			}
			injn := &sim.Injection{Label: "post-terminal-corrupt"}
			for proc := 0; proc < 3; proc++ {
				last := comp.StateAt(proc, p.Net, comp.StateCount(proc, p.Net)-1)
				injn.SetStates = append(injn.SetStates, sim.StateChange{Process: proc, State: last})
			}
			return injn
		},
	}
	res := sim.NewEngine(net, comp, sim.SynchronousDaemon{}).
		Run(start, sim.WithMaxSteps(100_000), sim.WithInjector(inj))
	if len(res.Events) != 1 {
		t.Fatalf("recorded %d events, want 1", len(res.Events))
	}
	if !res.Terminated {
		t.Errorf("run did not re-terminate after the post-terminal event")
	}
	if res.HitStepLimit {
		t.Errorf("run hit the step limit instead of terminating")
	}
}

// TestInvalidInjectionEditIsError checks that an event whose edge edit does
// not fit the current topology ends RunE with an error naming the event,
// before anything of it is installed, and that Run turns it into a panic.
func TestInvalidInjectionEditIsError(t *testing.T) {
	cases := []struct {
		name string
		injn sim.Injection
	}{
		{"drop-absent", sim.Injection{Label: "drop-absent", DropEdges: [][2]int{{0, 2}}}},
		{"add-present", sim.Injection{Label: "add-present", AddEdges: [][2]int{{1, 0}}}},
		{"add-twice", sim.Injection{Label: "add-twice", AddEdges: [][2]int{{0, 2}, {2, 0}}}},
		{"out-of-range", sim.Injection{Label: "out-of-range", AddEdges: [][2]int{{0, 8}}}},
		{"bad-process", sim.Injection{Label: "bad-process", SetStates: []sim.StateChange{{Process: 8}}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := graph.Ring(8)
			net := sim.NewNetwork(g)
			comp := core.Compose(unison.New(unison.DefaultPeriod(g.N())))
			start := sim.InitialConfiguration(comp, net)
			injn := tc.injn
			inj := &scriptedInjector{at: 3, build: func(sim.InjectionPoint) *sim.Injection { return &injn }}
			_, err := sim.NewEngine(net, comp, sim.SynchronousDaemon{}).
				RunE(start, sim.WithMaxSteps(50), sim.WithInjector(inj))
			if err == nil || !strings.Contains(err.Error(), tc.name) {
				t.Fatalf("RunE error = %v, want one naming %q", err, tc.name)
			}
			if net.Graph() != g {
				t.Error("a rejected event replaced the network's graph")
			}
			defer func() {
				if recover() == nil {
					t.Error("Run did not panic on the invalid event")
				}
			}()
			inj.fired = false
			sim.NewEngine(net, comp, sim.SynchronousDaemon{}).
				Run(start, sim.WithMaxSteps(50), sim.WithInjector(inj))
		})
	}
}

// TestConcurrentChurnedRunsShareOneGraph runs churned engines on several
// goroutines, each on its own Network over one shared graph. Churn builds
// every next topology instead of editing the current one, so the runs must
// neither race (under -race) nor disturb each other: each equals its
// sequential twin, and the shared graph still equals a fresh copy.
func TestConcurrentChurnedRunsShareOneGraph(t *testing.T) {
	g := graph.RandomRegularish(32, 3, rand.New(rand.NewSource(5)))
	pristine, err := graph.FromEdges(g.N(), g.Edges())
	if err != nil {
		t.Fatal(err)
	}
	comp := core.Compose(unison.New(unison.DefaultPeriod(g.N())))
	sched := churn.Schedule{
		Pattern:    churn.Periodic,
		Events:     6,
		Every:      15,
		Count:      2,
		EventKinds: []churn.Kind{churn.EdgeDrop, churn.Partition, churn.EdgeAdd, churn.Heal, churn.NodeCrash},
	}
	type outcome struct {
		res   sim.Result
		edges [][2]int
	}
	run := func(seed int64) outcome {
		net := sim.NewNetwork(g)
		rng := rand.New(rand.NewSource(seed))
		start := randomStart(t, comp, net, rng)
		inj, err := churn.NewInjector(sched, comp, comp.Inner(), net, rng)
		if err != nil {
			t.Error(err)
			return outcome{}
		}
		res, err := sim.NewEngine(net, comp, sim.NewDistributedRandomDaemon(rand.New(rand.NewSource(seed)), 0.5)).
			RunE(start, sim.WithMaxSteps(3_000), sim.WithInjector(inj),
				sim.WithLegitimate(core.NormalPredicate(comp.Inner())), sim.WithStopWhenLegitimate())
		if err != nil {
			t.Error(err)
		}
		return outcome{res, net.Graph().Edges()}
	}
	const workers = 4
	want := make([]outcome, workers)
	for w := range want {
		want[w] = run(int64(w + 1))
	}
	got := make([]outcome, workers)
	var wg sync.WaitGroup
	for w := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[w] = run(int64(w + 1))
		}()
	}
	wg.Wait()
	for w := range got {
		if len(want[w].res.Events) != sched.Events || reflect.DeepEqual(want[w].edges, g.Edges()) {
			t.Fatalf("run %d did not churn the topology: %d events", w, len(want[w].res.Events))
		}
		if !got[w].res.Final.Equal(want[w].res.Final) || got[w].res.Moves != want[w].res.Moves ||
			!reflect.DeepEqual(got[w].res.Events, want[w].res.Events) || !reflect.DeepEqual(got[w].edges, want[w].edges) {
			t.Errorf("concurrent run %d differs from its sequential twin", w)
		}
	}
	if !g.Equal(pristine) {
		t.Fatal("churned runs modified the shared graph")
	}
}
