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
// ticker run on a ring moves every process in every step, so under
// FirstEnabledRule the engine evaluates each guard n times at the seed and n
// times in each step's re-evaluation, and the apply phase evaluates none.
// RandomEnabledRule still evaluates the selected processes' guards when it
// executes them. Both that run and a memoized one must still match the
// reference engine. ticker implements no RuleIndexer, so every enabledness
// question reaches its guard.
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
		t.Errorf("FirstEnabledRule: %d guard calls, want n·(S+1) = %d", calls, want)
	}

	random := func() Option { return WithRuleChoice(RandomEnabledRule, rand.New(rand.NewSource(3))) }
	res := run(random())
	if want := n * (2*steps + 1); calls != want {
		t.Errorf("RandomEnabledRule: %d guard calls, want n·(2S+1) = %d", calls, want)
	}
	ref := NewEngine(net, alg, SynchronousDaemon{}).RunReference(start, WithMaxSteps(steps), random())
	if !reflect.DeepEqual(res, ref) {
		t.Errorf("RandomEnabledRule run differs from the reference:\n  run       %+v\n  reference %+v", res, ref)
	}

	res = run(WithMemo(NewMemoShare(0)))
	if res.Memo.Lookups() == 0 {
		t.Errorf("memoized run recorded no lookups")
	}
	res.Memo = MemoStats{}
	ref = NewEngine(net, alg, SynchronousDaemon{}).RunReference(start, WithMaxSteps(steps))
	if !reflect.DeepEqual(res, ref) {
		t.Errorf("memoized run differs from the reference:\n  run       %+v\n  reference %+v", res, ref)
	}
}
