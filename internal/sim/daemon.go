package sim

import (
	"math/rand"
	"slices"
)

// Daemon is the scheduling adversary of the model. Given the set of enabled
// processes of the current configuration, it selects the non-empty subset
// that is activated in the next step. The distributed unfair daemon of the
// paper is the set of all such selections; concrete daemons here are
// particular strategies (samples) of that adversary.
type Daemon interface {
	// Name identifies the daemon in benchmark tables.
	Name() string
	// Select returns a non-empty subset of sel.Enabled. The returned slice
	// may be the daemon's own buffer: it is valid only until the next
	// Select, and callers that keep it must copy it.
	Select(sel Selection) []int
}

// Selection is the information offered to a daemon when it picks a step.
// Config and Enabled are the engine's reusable working buffers: daemons must
// not retain or modify them beyond the Select call (clone if needed).
type Selection struct {
	// Net is the network the algorithm runs on.
	Net *Network
	// Alg is the algorithm being scheduled.
	Alg Algorithm
	// Config is the current configuration.
	Config *Configuration
	// Enabled is the sorted non-empty set of enabled processes.
	Enabled []int
	// Step is the index of the step about to be taken (0-based).
	Step int
}

// SynchronousDaemon activates every enabled process in every step.
type SynchronousDaemon struct{}

var _ Daemon = SynchronousDaemon{}

// Name implements Daemon.
func (SynchronousDaemon) Name() string { return "synchronous" }

// Select implements Daemon.
func (SynchronousDaemon) Select(sel Selection) []int { return sel.Enabled }

// CentralRandomDaemon activates exactly one enabled process chosen uniformly
// at random. It models the central (sequential) daemon.
type CentralRandomDaemon struct {
	rng *rand.Rand
	out [1]int // the selection buffer, reused by every Select
}

var _ Daemon = (*CentralRandomDaemon)(nil)

// NewCentralRandomDaemon returns a central daemon seeded by rng.
func NewCentralRandomDaemon(rng *rand.Rand) *CentralRandomDaemon {
	return &CentralRandomDaemon{rng: rng}
}

// Name implements Daemon.
func (*CentralRandomDaemon) Name() string { return "central-random" }

// Select implements Daemon.
func (d *CentralRandomDaemon) Select(sel Selection) []int {
	d.out[0] = sel.Enabled[d.rng.Intn(len(sel.Enabled))]
	return d.out[:]
}

// DistributedRandomDaemon activates each enabled process independently with
// probability P, re-drawing until the selection is non-empty. It samples the
// distributed unfair daemon uniformly-ish.
type DistributedRandomDaemon struct {
	rng *rand.Rand
	p   float64
	out []int // the selection buffer, reused by every Select
}

var _ Daemon = (*DistributedRandomDaemon)(nil)

// NewDistributedRandomDaemon returns a distributed random daemon that
// activates each enabled process with probability p (clamped to (0,1]).
func NewDistributedRandomDaemon(rng *rand.Rand, p float64) *DistributedRandomDaemon {
	if p <= 0 || p > 1 {
		p = 0.5
	}
	return &DistributedRandomDaemon{rng: rng, p: p}
}

// Name implements Daemon.
func (*DistributedRandomDaemon) Name() string { return "distributed-random" }

// Select implements Daemon.
func (d *DistributedRandomDaemon) Select(sel Selection) []int {
	if cap(d.out) < len(sel.Enabled) {
		d.out = make([]int, 0, len(sel.Enabled))
	}
	for {
		out := d.out[:0]
		for _, u := range sel.Enabled {
			if d.rng.Float64() < d.p {
				out = append(out, u)
			}
		}
		if len(out) > 0 {
			return out
		}
	}
}

// LocallyCentralDaemon activates a random maximal independent subset of the
// enabled processes: no two activated processes are neighbours. Some prior
// alliance algorithms require this daemon; the paper's algorithms do not,
// but it is useful for ablation A2.
type LocallyCentralDaemon struct {
	rng   *rand.Rand
	perm  []int  // the visiting order, reused by every Select
	taken bitset // the processes selected so far in a Select, cleared before it returns
	out   []int  // the selection buffer, reused by every Select
}

var _ Daemon = (*LocallyCentralDaemon)(nil)

// NewLocallyCentralDaemon returns a locally central daemon seeded by rng.
func NewLocallyCentralDaemon(rng *rand.Rand) *LocallyCentralDaemon {
	return &LocallyCentralDaemon{rng: rng}
}

// Name implements Daemon.
func (*LocallyCentralDaemon) Name() string { return "locally-central" }

// Select implements Daemon. It visits the enabled processes in a random
// order and selects every one that has no selected neighbour yet. The order
// is drawn by rand.Perm's own loop into a reused buffer, so the rng draws,
// and with them the schedules, are exactly those of rand.Perm.
func (d *LocallyCentralDaemon) Select(sel Selection) []int {
	k := len(sel.Enabled)
	if cap(d.perm) < k {
		d.perm = make([]int, k)
	}
	perm := d.perm[:k]
	for i := range perm {
		j := d.rng.Intn(i + 1)
		perm[i] = perm[j]
		perm[j] = i
	}
	if n := sel.Net.N(); len(d.taken)*64 < n {
		d.taken = newBitset(n)
	}
	out := d.out[:0]
	for _, i := range perm {
		u := sel.Enabled[i]
		conflict := false
		for j, deg := 0, sel.Net.Degree(u); j < deg; j++ {
			if d.taken.get(sel.Net.Neighbor(u, j)) {
				conflict = true
				break
			}
		}
		if !conflict {
			d.taken.set(u)
			out = append(out, u)
		}
	}
	for _, u := range out {
		d.taken.clear(u)
	}
	d.out = out
	return out
}

// RoundRobinDaemon activates one process per step, cycling through process
// indices. It is weakly fair: an continuously enabled process is eventually
// activated.
type RoundRobinDaemon struct {
	next int
	out  [1]int // the selection buffer, reused by every Select
}

var _ Daemon = (*RoundRobinDaemon)(nil)

// NewRoundRobinDaemon returns a weakly fair round-robin daemon.
func NewRoundRobinDaemon() *RoundRobinDaemon { return &RoundRobinDaemon{} }

// Name implements Daemon.
func (*RoundRobinDaemon) Name() string { return "round-robin" }

// Select implements Daemon. Enabled is sorted, so the first enabled process
// at or after the cursor is found by binary search (wrapping to the smallest
// enabled process when none remains above the cursor).
func (d *RoundRobinDaemon) Select(sel Selection) []int {
	i, _ := slices.BinarySearch(sel.Enabled, d.next)
	if i == len(sel.Enabled) {
		i = 0
	}
	u := sel.Enabled[i]
	d.next = (u + 1) % sel.Net.N()
	d.out[0] = u
	return d.out[:]
}

// GreedyAdversarialDaemon activates the single enabled process whose
// activation leaves the largest number of processes enabled afterwards
// (one-step lookahead). Since it activates exactly one process per step it
// is a legal unfair-daemon schedule that tends to maximise the number of
// moves; it is used to probe worst-case move complexity.
type GreedyAdversarialDaemon struct {
	rng     *rand.Rand
	patched Configuration // the lookahead configuration over scratch
	scratch []State
	best    []int
	ev      *Evaluator
	out     [1]int // the selection buffer, reused by every Select
}

var _ Daemon = (*GreedyAdversarialDaemon)(nil)

// NewGreedyAdversarialDaemon returns the adversarial daemon; rng breaks ties.
func NewGreedyAdversarialDaemon(rng *rand.Rand) *GreedyAdversarialDaemon {
	return &GreedyAdversarialDaemon{rng: rng}
}

// Name implements Daemon.
func (*GreedyAdversarialDaemon) Name() string { return "greedy-adversarial" }

// Select implements Daemon. The lookahead is neighbourhood-scoped: moving u
// changes only u's state, and guards read closed neighbourhoods only, so the
// enabled count after the move differs from |Enabled| exactly by the
// enabledness changes at u and its neighbours — O(Δ·|rules|) per candidate
// instead of rescanning all n processes.
func (d *GreedyAdversarialDaemon) Select(sel Selection) []int {
	n := sel.Net.N()
	if cap(d.scratch) < n {
		d.scratch = make([]State, n)
	}
	if d.ev == nil || d.ev.Algorithm() != sel.Alg || d.ev.Network() != sel.Net {
		d.ev = NewEvaluator(sel.Alg, sel.Net)
	}
	states := d.scratch[:n]
	for u := 0; u < n; u++ {
		states[u] = sel.Config.State(u)
	}
	d.patched.states = states
	patched := &d.patched
	base := len(sel.Enabled)
	bestScore := -1
	best := d.best[:0]
	for _, u := range sel.Enabled {
		score := base
		if ri := d.ev.FirstEnabledRule(sel.Config, u); ri >= 0 {
			states[u] = d.ev.Rules()[ri].Action(sel.Net.View(sel.Config, u))
			// u was enabled before the move by construction.
			if !d.ev.Enabled(patched, u) {
				score--
			}
			for i, deg := 0, sel.Net.Degree(u); i < deg; i++ {
				w := sel.Net.Neighbor(u, i)
				_, before := slices.BinarySearch(sel.Enabled, w)
				after := d.ev.Enabled(patched, w)
				if after && !before {
					score++
				} else if !after && before {
					score--
				}
			}
			states[u] = sel.Config.State(u)
		}
		if score > bestScore {
			bestScore = score
			best = best[:0]
			best = append(best, u)
		} else if score == bestScore {
			best = append(best, u)
		}
	}
	d.best = best
	d.out[0] = best[d.rng.Intn(len(best))]
	return d.out[:]
}

// DaemonFactory builds a fresh daemon from a seed; benchmark sweeps use it to
// get independent daemons per trial while remaining reproducible.
type DaemonFactory struct {
	// Name of the daemons produced by this factory.
	Name string
	// New builds a daemon from the given seed.
	New func(seed int64) Daemon
}

// StandardDaemonFactories returns the factories of the daemons used across
// the experiment suite.
func StandardDaemonFactories() []DaemonFactory {
	return []DaemonFactory{
		{Name: "synchronous", New: func(int64) Daemon { return SynchronousDaemon{} }},
		{Name: "central-random", New: func(seed int64) Daemon {
			return NewCentralRandomDaemon(rand.New(rand.NewSource(seed)))
		}},
		{Name: "distributed-random", New: func(seed int64) Daemon {
			return NewDistributedRandomDaemon(rand.New(rand.NewSource(seed)), 0.5)
		}},
		{Name: "locally-central", New: func(seed int64) Daemon {
			return NewLocallyCentralDaemon(rand.New(rand.NewSource(seed)))
		}},
		{Name: "round-robin", New: func(int64) Daemon { return NewRoundRobinDaemon() }},
		{Name: "greedy-adversarial", New: func(seed int64) Daemon {
			return NewGreedyAdversarialDaemon(rand.New(rand.NewSource(seed)))
		}},
	}
}
