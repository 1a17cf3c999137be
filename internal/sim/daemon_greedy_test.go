package sim

import (
	"math/rand"
	"testing"

	"sdr/internal/graph"
)

// naiveGreedySelect is the original full-rescan lookahead: apply each
// candidate's move to a cloned configuration and count the whole enabled set.
// The optimised neighbourhood-scoped lookahead must agree with it exactly
// (same scores ⇒ same tie set ⇒ same rng consumption ⇒ same selection).
func naiveGreedySelect(rng *rand.Rand, sel Selection) []int {
	bestScore := -1
	var best []int
	for _, u := range sel.Enabled {
		next := applySingleMove(sel.Alg, sel.Net, sel.Config, u)
		score := len(EnabledSet(sel.Alg, sel.Net, next))
		if score > bestScore {
			bestScore = score
			best = best[:0]
			best = append(best, u)
		} else if score == bestScore {
			best = append(best, u)
		}
	}
	return []int{best[rng.Intn(len(best))]}
}

func TestGreedyAdversarialMatchesNaiveLookahead(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(seed + 100))
		g := graph.RandomConnected(10, 0.35, rng)
		net := NewNetwork(g)
		alg := maxPropagation{}

		scoped := NewGreedyAdversarialDaemon(rand.New(rand.NewSource(seed)))
		naiveRng := rand.New(rand.NewSource(seed))

		c := InitialConfiguration(alg, net)
		for step := 0; step < 200; step++ {
			enabled := EnabledSet(alg, net, c)
			if len(enabled) == 0 {
				break
			}
			sel := Selection{Net: net, Alg: alg, Config: c, Enabled: enabled, Step: step}
			got := scoped.Select(sel)
			want := naiveGreedySelect(naiveRng, sel)
			if len(got) != 1 || got[0] != want[0] {
				t.Fatalf("seed %d step %d: scoped lookahead selected %v, naive selected %v",
					seed, step, got, want)
			}
			c = applySingleMove(alg, net, c, got[0])
		}
	}
}

// applySingleMove returns the configuration obtained by letting only u move
// (executing its first enabled rule) from c: the naive lookahead the greedy
// daemon's neighbourhood-scoped Select replaced.
func applySingleMove(a Algorithm, net *Network, c *Configuration, u int) *Configuration {
	v := net.View(c, u)
	next := NewConfiguration(copyStates(c))
	for _, r := range a.Rules() {
		if r.Guard(v) {
			next.SetState(u, r.Action(v))
			return next
		}
	}
	return next
}

func copyStates(c *Configuration) []State {
	states := make([]State, c.N())
	for i := 0; i < c.N(); i++ {
		states[i] = c.State(i)
	}
	return states
}
