package unison

import (
	"sdr/internal/core"
	"sdr/internal/sim"
)

// NewSelfStabilizing returns the self-stabilizing unison U ∘ SDR with period
// k (Theorem 6): the composition of Algorithm U with the cooperative reset.
func NewSelfStabilizing(k int) *core.Composed {
	return core.Compose(New(k))
}

// NewSelfStabilizingUncooperative returns the ablation variant of U ∘ SDR in
// which resets do not cooperate (see core.WithUncooperativeResets).
func NewSelfStabilizingUncooperative(k int) *core.Composed {
	return core.Compose(New(k), core.WithUncooperativeResets())
}

// DefaultPeriod returns the smallest period the paper allows for a network
// of n processes: K = n + 1 (the requirement is K > n).
func DefaultPeriod(n int) int { return n + 1 }

// MaxStabilizationRounds is the round bound of Theorem 7: U ∘ SDR stabilizes
// within at most 3n rounds.
func MaxStabilizationRounds(n int) int { return core.MaxResetRounds(n) }

// MaxStabilizationMoves is the move bound derived in Section 5.5 for
// Theorem 6: at most (3D+3)·n² + (3D+1)·(n-1) + 1 moves to reach a normal
// configuration, i.e. O(D·n²).
func MaxStabilizationMoves(n, d int) int {
	return (3*d+3)*n*n + (3*d+1)*(n-1) + 1
}

// MaxStandaloneMovesPerProcess is the bound of Lemma 20: in any execution of
// U (alone) starting from a configuration that is not clean-and-correct
// everywhere, each process moves at most 3D times.
func MaxStandaloneMovesPerProcess(d int) int { return 3 * d }

// SafetyPredicate returns the unison safety condition on the given network
// for composed states: the clocks of every two neighbours are at most one
// increment apart (circular distance ≤ 1 modulo K).
func SafetyPredicate(u *Unison, net *sim.Network) sim.Predicate {
	return func(c *sim.Configuration) bool {
		g := net.Graph()
		for _, e := range g.Edges() {
			a := clockOf(core.InnerPart(c.State(e[0])))
			b := clockOf(core.InnerPart(c.State(e[1])))
			if CircularDistance(a, b, u.K()) > 1 {
				return false
			}
		}
		return true
	}
}

// MaxDrift returns the maximum circular clock distance over all edges of the
// network in the given composed configuration. A value of at most 1 means
// the unison safety condition holds.
func MaxDrift(u *Unison, net *sim.Network, c *sim.Configuration) int {
	maxDrift := 0
	for _, e := range net.Graph().Edges() {
		a := clockOf(core.InnerPart(c.State(e[0])))
		b := clockOf(core.InnerPart(c.State(e[1])))
		if d := CircularDistance(a, b, u.K()); d > maxDrift {
			maxDrift = d
		}
	}
	return maxDrift
}

// Clocks extracts the per-process clock values from a configuration of U or
// of U ∘ SDR.
func Clocks(c *sim.Configuration) []int {
	out := make([]int, c.N())
	for u := range out {
		s := c.State(u)
		if cs, ok := s.(core.ComposedState); ok {
			s = cs.Inner
		}
		out[u] = clockOf(s)
	}
	return out
}

// TickCounter counts, per process, the number of clock increments (executions
// of the tick rule) observed through a step hook. It is used to check the
// liveness part of the unison specification on finite run prefixes.
type TickCounter struct {
	counts []int
}

// tickRule is the index of the tick rule in Algorithm U's InnerRules.
const tickRule = 0

// NewTickCounter returns a counter for a network of n processes observing
// executions of the composed algorithm (rule "I:tick").
func NewTickCounter(n int) *TickCounter {
	return &TickCounter{counts: make([]int, n)}
}

// Hook returns the sim.StepHook to register with sim.WithStepHook.
func (t *TickCounter) Hook() sim.StepHook {
	rule := core.InnerRuleIndex(tickRule)
	return func(info sim.StepInfo) {
		for i, u := range info.Activated {
			if info.Rules[i] == rule {
				t.counts[u]++
			}
		}
	}
}

// Min returns the minimum tick count over all processes.
func (t *TickCounter) Min() int {
	if len(t.counts) == 0 {
		return 0
	}
	minTicks := t.counts[0]
	for _, c := range t.counts[1:] {
		if c < minTicks {
			minTicks = c
		}
	}
	return minTicks
}
