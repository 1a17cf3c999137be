package sim

import (
	"math/rand"
	"reflect"
	"testing"

	"sdr/internal/graph"
)

// Key returns the compact key of c, freshly allocated like AppendKey's.
func (ki *KeyInterner) Key(c *Configuration) string {
	key, _ := ki.AppendKey(nil, c)
	return key
}

// evaluatorTestSetup builds the max-propagation test algorithm on a ring in
// a random configuration, so that enabledness varies across processes.
func evaluatorTestSetup(t *testing.T) (*Network, Algorithm, *Configuration) {
	t.Helper()
	net := NewNetwork(graph.Ring(6))
	alg := maxPropagation{}
	states := make([]State, net.N())
	rng := rand.New(rand.NewSource(7))
	for u := range states {
		states[u] = intState{v: rng.Intn(4)}
	}
	return net, alg, NewConfiguration(states)
}

// TestEvaluatorMatchesHelpers is the shared-guard-path contract: the
// Evaluator answers exactly what the package-level helpers answer, and the
// helpers are now defined through it.
func TestEvaluatorMatchesHelpers(t *testing.T) {
	net, alg, c := evaluatorTestSetup(t)
	ev := NewEvaluator(alg, net)
	for u := 0; u < net.N(); u++ {
		if got, want := ev.Enabled(c, u), Enabled(alg, net, c, u); got != want {
			t.Errorf("Enabled(%d) = %v, helper says %v", u, got, want)
		}
		got := ev.AppendEnabledRules(nil, c, u)
		want := EnabledRules(alg, net, c, u)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("EnabledRules(%d) = %v, helper says %v", u, got, want)
		}
	}
	if got, want := ev.AppendEnabled(nil, c), EnabledSet(alg, net, c); !reflect.DeepEqual(got, want) {
		t.Errorf("AppendEnabled = %v, helper says %v", got, want)
	}
	if got, want := ev.Terminal(c), Terminal(alg, net, c); got != want {
		t.Errorf("Terminal = %v, helper says %v", got, want)
	}
}

func TestEvaluatorReusesBuffers(t *testing.T) {
	net, alg, c := evaluatorTestSetup(t)
	ev := NewEvaluator(alg, net)
	buf := make([]int, 0, net.N())
	out := ev.AppendEnabled(buf, c)
	if len(out) > 0 && &out[0] != &buf[:1][0] {
		t.Error("AppendEnabled reallocated despite sufficient capacity")
	}
}

// lyingIndexer is maxPropagation with a RuleIndexer that answers a fixed
// rule index, so a test can tell which path answered.
type lyingIndexer struct {
	maxPropagation
	answer int
}

func (l lyingIndexer) FirstEnabled(View) int { return l.answer }

// TestEvaluatorUsesRuleIndexer pins the indexer wiring: FirstEnabledRule and
// everything built on it ask the algorithm's RuleIndexer, while
// AppendEnabledRules keeps evaluating the guards.
func TestEvaluatorUsesRuleIndexer(t *testing.T) {
	net, _, c := evaluatorTestSetup(t)
	guards := NewEvaluator(maxPropagation{}, net)
	never := NewEvaluator(lyingIndexer{answer: -1}, net)
	for u := 0; u < net.N(); u++ {
		if got := never.FirstEnabledRule(c, u); got != -1 {
			t.Fatalf("FirstEnabledRule(%d) = %d, want the indexer's -1", u, got)
		}
		if got, want := never.AppendEnabledRules(nil, c, u), guards.AppendEnabledRules(nil, c, u); !reflect.DeepEqual(got, want) {
			t.Fatalf("AppendEnabledRules(%d) = %v, want the guards' %v", u, got, want)
		}
	}
	if !never.Terminal(c) || len(never.AppendEnabled(nil, c)) != 0 {
		t.Error("Terminal/AppendEnabled did not go through the indexer")
	}
	if guards.Terminal(c) {
		t.Fatal("test configuration is terminal; pick one with an enabled process")
	}
}

// TestKeyInternerEquivalence pins the interner to configuration equality:
// within one interner, two configurations get equal keys exactly when they
// assign equal states to every process.
func TestKeyInternerEquivalence(t *testing.T) {
	net, alg, _ := evaluatorTestSetup(t)
	_ = alg
	rng := rand.New(rand.NewSource(3))
	var configs []*Configuration
	for i := 0; i < 64; i++ {
		states := make([]State, net.N())
		for u := range states {
			states[u] = intState{v: rng.Intn(3)}
		}
		configs = append(configs, NewConfiguration(states))
	}
	ki := NewKeyInterner()
	interned := make([]string, len(configs))
	for i, c := range configs {
		interned[i] = ki.Key(c)
	}
	for i, a := range configs {
		for j, b := range configs {
			equal := a.Equal(b)
			internEqual := interned[i] == interned[j]
			if equal != internEqual {
				t.Fatalf("configs %d and %d: equality %v but interned equality %v", i, j, equal, internEqual)
			}
		}
	}
	if ki.States() == 0 || ki.States() > 3 {
		t.Errorf("interner tracked %d distinct local states, want 1..3", ki.States())
	}
	// Interned keys must be stable: re-keying returns the same bytes.
	for i, c := range configs {
		if ki.Key(c) != interned[i] {
			t.Fatalf("re-keying config %d changed the key", i)
		}
	}
}
