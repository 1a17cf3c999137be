package sim

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"sdr/internal/graph"
)

// countingAlg wraps an algorithm so that every guard evaluation of its rules
// increments *calls.
type countingAlg struct {
	Algorithm
	calls *int
}

func (a countingAlg) Rules() []Rule {
	rules := slices.Clone(a.Algorithm.Rules())
	for i := range rules {
		guard := rules[i].Guard
		rules[i].Guard = func(v View) bool {
			*a.calls++
			return guard(v)
		}
	}
	return rules
}

// TestGuardEvaluatedOncePerStep pins the engine's guard work: a synchronous
// ticker run on a ring moves every process in every step, so the engine
// evaluates each guard n times at the seed and n times in each step's
// re-evaluation, and the apply phase evaluates none. A memoized run must
// still match the reference engine. ticker implements no RuleIndexer, so
// every enabledness question reaches its guard.
func TestGuardEvaluatedOncePerStep(t *testing.T) {
	const steps = 50
	net := NewNetwork(graph.Ring(64))
	n := net.N()
	var calls int
	alg := countingAlg{Algorithm: ticker{}, calls: &calls}
	start := InitialConfiguration(alg, net)
	run := func(opts ...Option) Result {
		calls = 0
		opts = append([]Option{WithMaxSteps(steps)}, opts...)
		return NewEngine(net, alg, SynchronousDaemon{}).Run(start, opts...)
	}

	if res := run(); res.Steps != steps || res.Moves != n*steps {
		t.Fatalf("ran %d steps with %d moves, want %d steps with %d moves", res.Steps, res.Moves, steps, n*steps)
	}
	if want := n * (steps + 1); calls != want {
		t.Errorf("%d guard calls, want n·(S+1) = %d", calls, want)
	}

	res := run(WithMemo(NewMemoShare(0)))
	if res.Memo.Lookups() == 0 {
		t.Errorf("memoized run recorded no lookups")
	}
	res.Memo = MemoStats{}
	ref := NewEngine(net, alg, SynchronousDaemon{}).RunReference(start, WithMaxSteps(steps))
	if !reflect.DeepEqual(res, ref) {
		t.Errorf("memoized run differs from the reference:\n  run       %+v\n  reference %+v", res, ref)
	}
}

// quietInjector never fires an event. Attaching it makes a run decide
// legitimacy after every step, as churned runs do for their availability
// and recovery accounting.
type quietInjector struct{}

func (quietInjector) Inject(InjectionPoint) *Injection { return nil }
func (quietInjector) Done() bool                       { return true }

// TestLegitimacyEvaluatedOnTouchedOnly pins the engine's legitimacy work. A
// central-daemon ticker run on a ring moves one process per step, so each
// step touches the three closed neighbourhoods around it. With a predicate
// that always holds, an injected run evaluates it n times at the seed and
// once per touched process afterwards (the hook recounts the touched sets),
// where a full scan would evaluate it n times per step; a static run stops
// deciding at its legitimate start. With a predicate violated only at
// process 0, every decision starts at that known violator: it costs one call
// when the step touched process 0 and none otherwise, static or injected,
// where evaluating every touched process would cost three per step. Sharded
// runs make the same calls.
func TestLegitimacyEvaluatedOnTouchedOnly(t *testing.T) {
	const steps = 200
	net := NewNetwork(graph.Ring(256))
	n := net.N()
	start := InitialConfiguration(ticker{}, net)
	var calls int
	counting := func(p ProcessPredicate) ProcessPredicate {
		return func(v View) bool {
			calls++
			return p(v)
		}
	}
	holds := counting(func(View) bool { return true })
	badAtZero := counting(func(v View) bool { return v.Process() != 0 })

	// run executes the ticker and returns the summed sizes of the touched
	// sets and the number of steps that touched process 0.
	run := func(p ProcessPredicate, extra ...Option) (touched, touchedZero int) {
		calls = 0
		hook := func(info StepInfo) {
			marks := newBitset(n)
			for _, u := range info.Activated {
				marks.set(u)
				for i := 0; i < net.Degree(u); i++ {
					marks.set(net.Neighbor(u, i))
				}
			}
			touched += len(indices(marks))
			if marks.get(0) {
				touchedZero++
			}
		}
		opts := append([]Option{WithMaxSteps(steps), WithLegitimate(p), WithStepHook(hook)}, extra...)
		res := NewEngine(net, ticker{}, NewCentralRandomDaemon(rand.New(rand.NewSource(7)))).Run(start, opts...)
		if res.Steps != steps {
			t.Fatalf("ran %d steps, want %d", res.Steps, steps)
		}
		return touched, touchedZero
	}

	for _, shards := range []int{1, 4} {
		sh := WithShards(shards)
		if touched, _ := run(holds, sh, WithInjector(quietInjector{})); calls != n+touched || touched != 3*steps {
			t.Errorf("shards=%d, holds everywhere, injected: %d calls over %d touched processes, want n + touched = %d (a full scan makes %d)",
				shards, calls, touched, n+touched, n*(steps+1))
		}
		if run(holds, sh); calls != n {
			t.Errorf("shards=%d, holds everywhere, static: %d calls, want n = %d", shards, calls, n)
		}
		for _, extra := range [][]Option{{sh}, {sh, WithInjector(quietInjector{})}} {
			_, touchedZero := run(badAtZero, extra...)
			if calls != 1+touchedZero {
				t.Errorf("shards=%d, violated at 0, injected=%v: %d calls, want 1 + %d steps touching 0",
					shards, len(extra) > 1, calls, touchedZero)
			}
			if touchedZero == 0 || touchedZero == steps {
				t.Fatalf("%d of %d steps touched process 0: the case pins nothing", touchedZero, steps)
			}
		}
	}
}
