package sim_test

import (
	"math/rand"
	"testing"

	"sdr/internal/alliance"
	"sdr/internal/churn"
	"sdr/internal/core"
	"sdr/internal/graph"
	"sdr/internal/sim"
	"sdr/internal/spantree"
	"sdr/internal/unison"
)

// The memo differential tests pin the tentpole guarantee of the memoization
// layer: a memoized Run is bit-identical to the unmemoized reference engine —
// same daemons, same rule choices, same counters, same final configuration —
// across every standard daemon, the paper's instantiations, both rule-choice
// policies and churn schedules. The memo layer may only change how fast
// enabledness questions are answered, never their answers.

// TestMemoMatchesReference is the memoized twin of TestEngineMatchesReference:
// every standard daemon × every instantiation × fixed seeds, memoized Run
// against the unmemoized reference engine.
func TestMemoMatchesReference(t *testing.T) {
	seeds := []int64{1, 2}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		for _, df := range sim.StandardDaemonFactories() {
			for _, w := range diffWorkloads(t, seed) {
				memoOpts := append(append([]sim.Option(nil), w.opts...),
					sim.WithMemo(sim.NewMemoShare(0)))
				inc := sim.NewEngine(w.net, w.alg, df.New(seed)).Run(w.start, memoOpts...)
				ref := sim.NewEngine(w.net, w.alg, df.New(seed)).RunReference(w.start, w.opts...)
				assertResultsIdentical(t, "memo/"+w.name+"/"+df.Name, inc, ref)
				if inc.Steps > 0 && inc.Memo.Lookups() == 0 {
					t.Errorf("%s/%s: memoized run recorded no lookups", w.name, df.Name)
				}
			}
		}
	}
}

// TestMemoSharedTableMatchesReference covers the read-only sharing protocol:
// a first run donates its table to the share, and a second run answering from
// the frozen table must still match the reference bit for bit.
func TestMemoSharedTableMatchesReference(t *testing.T) {
	for _, df := range sim.StandardDaemonFactories() {
		for _, w := range diffWorkloads(t, 5) {
			share := sim.NewMemoShare(0)
			memoOpts := append(append([]sim.Option(nil), w.opts...), sim.WithMemo(share))
			sim.NewEngine(w.net, w.alg, df.New(5)).Run(w.start, memoOpts...)
			if share.Frozen() == nil {
				t.Fatalf("%s/%s: first run did not donate", w.name, df.Name)
			}
			second := sim.NewEngine(w.net, w.alg, df.New(5)).Run(w.start, memoOpts...)
			ref := sim.NewEngine(w.net, w.alg, df.New(5)).RunReference(w.start, w.opts...)
			assertResultsIdentical(t, "memo-shared/"+w.name+"/"+df.Name, second, ref)
			if second.Memo.Hits == 0 {
				t.Errorf("%s/%s: second run never hit the frozen table", w.name, df.Name)
			}
		}
	}
}

// TestMemoChurnMatchesPlain compares a memoized and an unmemoized run under
// an identical churn schedule (state corruption, crash-reboot and topology
// mutation). Churn mutates the network in place, so each run gets its own
// freshly built network, injector and start configuration from the same
// seeds. Keys self-describe the neighbourhood, so topology mutations must
// need no cache invalidation beyond the engine's per-injection id-mirror
// reset.
func TestMemoChurnMatchesPlain(t *testing.T) {
	sched := churn.Schedule{
		Pattern: churn.Periodic,
		Events:  6,
		Every:   150,
		Start:   100,
		EventKinds: []churn.Kind{
			churn.CorruptFraction, churn.EdgeDrop, churn.EdgeAdd, churn.NodeCrash,
		},
		Fraction: 0.3,
		Count:    1,
	}
	type setup struct {
		net   *sim.Network
		alg   sim.Algorithm
		start *sim.Configuration
		opts  []sim.Option
	}
	build := func(extra ...sim.Option) setup {
		rng := rand.New(rand.NewSource(41))
		g := graph.RandomConnected(10, 0.35, rng)
		net := sim.NewNetwork(g)
		u := unison.New(unison.DefaultPeriod(g.N()))
		comp := core.Compose(u)
		start := randomStart(t, comp, net, rng)
		inj, err := churn.NewInjector(sched, comp, u, net, rand.New(rand.NewSource(99)))
		if err != nil {
			t.Fatalf("NewInjector: %v", err)
		}
		opts := append([]sim.Option{
			sim.WithMaxSteps(4_000),
			sim.WithLegitimate(core.NormalPredicate(u)),
			sim.WithInjector(inj),
		}, extra...)
		return setup{net: net, alg: comp, start: start, opts: opts}
	}
	for _, df := range sim.StandardDaemonFactories() {
		plainSetup := build()
		memoSetup := build(sim.WithMemo(sim.NewMemoShare(0)))
		plain := sim.NewEngine(plainSetup.net, plainSetup.alg, df.New(13)).
			Run(plainSetup.start, plainSetup.opts...)
		memo := sim.NewEngine(memoSetup.net, memoSetup.alg, df.New(13)).
			Run(memoSetup.start, memoSetup.opts...)
		assertResultsIdentical(t, "memo-churn/"+df.Name, memo, plain)
		if len(memo.Events) != len(plain.Events) {
			t.Fatalf("%s: %d events vs %d", df.Name, len(memo.Events), len(plain.Events))
		}
		for i := range memo.Events {
			if memo.Events[i] != plain.Events[i] {
				t.Fatalf("%s event %d: %+v vs %+v", df.Name, i, memo.Events[i], plain.Events[i])
			}
		}
		if memo.LegitimateSteps != plain.LegitimateSteps {
			t.Fatalf("%s: LegitimateSteps %d vs %d", df.Name, memo.LegitimateSteps, plain.LegitimateSteps)
		}
		if memo.Memo.Lookups() == 0 {
			t.Fatalf("%s: churned memoized run recorded no lookups", df.Name)
		}
	}
}

// TestAppendStateKeyMatchesString pins the KeyAppender contract for every
// state type with a rendering bypass: the appended bytes must equal the
// String() rendering exactly, because the interner's id table is keyed by the
// rendering.
func TestAppendStateKeyMatchesString(t *testing.T) {
	states := []sim.State{
		unison.ClockState{C: 0},
		unison.ClockState{C: 17},
		unison.BPVState{R: 0},
		unison.BPVState{R: -5},
		unison.BPVState{R: 12},
		alliance.FGAState{Col: false, Scr: -1, CanQ: false, Ptr: alliance.NoPointer},
		alliance.FGAState{Col: true, Scr: 0, CanQ: true, Ptr: 7},
		alliance.FGAState{Col: true, Scr: 1, CanQ: false, Ptr: 0},
		alliance.ResetFGAState(),
		spantree.NodeState{Dist: 0, Parent: spantree.NoParent},
		spantree.NodeState{Dist: 3, Parent: 5},
		core.ComposedState{SDR: core.CleanSDRState(), Inner: unison.ClockState{C: 4}},
		core.ComposedState{
			SDR:   core.SDRState{St: core.StatusRB, D: 2},
			Inner: alliance.FGAState{Col: true, Scr: -1, CanQ: true, Ptr: alliance.NoPointer},
		},
		core.ComposedState{
			SDR:   core.SDRState{St: core.StatusRF, D: 0},
			Inner: spantree.NodeState{Dist: 9, Parent: spantree.NoParent},
		},
	}
	for _, s := range states {
		if _, ok := s.(sim.KeyAppender); !ok {
			t.Errorf("%T does not implement sim.KeyAppender", s)
			continue
		}
		if got, want := string(sim.AppendStateKey(nil, s)), s.String(); got != want {
			t.Errorf("%T: AppendStateKey %q != String %q", s, got, want)
		}
	}
	// The generic fallback renders through String().
	fallback := fallbackState{}
	if got := string(sim.AppendStateKey(nil, fallback)); got != fallback.String() {
		t.Errorf("fallback: %q != %q", got, fallback.String())
	}
}

// fallbackState has no KeyAppender bypass.
type fallbackState struct{}

func (fallbackState) Equal(o sim.State) bool { _, ok := o.(fallbackState); return ok }
func (fallbackState) String() string         { return "fallback" }
