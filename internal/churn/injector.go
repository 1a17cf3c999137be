package churn

import (
	"math/rand"

	"sdr/internal/core"
	"sdr/internal/sim"
)

// Injector realises a Schedule as a sim.Injector: the event times and kinds
// are fixed at construction from a seeded rng, and each event's amplitude
// (which processes, which states, which edges) is drawn from the same rng at
// fire time. Events fire in schedule order, one Inject call each, so the rng
// stream — and hence the whole run — is reproducible from the seed
// regardless of when the events fire.
//
// At a terminal configuration the engine offers the injector a boundary even
// though no step can execute; the injector then fast-forwards, firing its
// next pending event immediately (a silent algorithm that terminated early
// would otherwise never experience the rest of the schedule). Fast-forward
// changes an event's fire step but not the rng draw order, so the event
// contents stay deterministic.
type Injector struct {
	sched Schedule
	alg   sim.Algorithm
	enum  sim.Enumerable // nil when the algorithm does not enumerate
	inner core.Resettable
	rng   *rand.Rand

	times []int
	kinds []Kind
	next  int

	// healEdges is the cut of the currently open partition, nil when none.
	healEdges [][2]int
}

var _ sim.Injector = (*Injector)(nil)

// NewInjector builds the injector of a schedule for one run. All randomness
// (event times for Poisson arrivals, event amplitudes) derives from rng. It
// fails when the schedule is invalid or its event kinds require capabilities
// the algorithm does not have (an enumerated state space, a composition).
func NewInjector(sched Schedule, alg sim.Algorithm, inner core.Resettable, net *sim.Network, rng *rand.Rand) (*Injector, error) {
	sched = sched.withDefaults()
	if err := sched.Validate(); err != nil {
		return nil, err
	}
	if err := sched.requirements(alg, inner, net); err != nil {
		return nil, err
	}
	inj := &Injector{
		sched: sched,
		alg:   alg,
		inner: inner,
		rng:   rng,
		times: sched.times(rng),
		kinds: make([]Kind, sched.Events),
	}
	inj.enum, _ = alg.(sim.Enumerable)
	for i := range inj.kinds {
		inj.kinds[i] = sched.EventKinds[i%len(sched.EventKinds)]
	}
	return inj, nil
}

// Schedule returns the schedule the injector realises (with defaults
// filled).
func (i *Injector) Schedule() Schedule { return i.sched }

// Times returns a copy of the generated event fire steps.
func (i *Injector) Times() []int { return append([]int(nil), i.times...) }

// Done implements sim.Injector.
func (i *Injector) Done() bool { return i.next >= len(i.times) }

// Inject implements sim.Injector: it fires the next scheduled event when its
// time has come (or immediately at a terminal configuration), one event per
// call.
func (i *Injector) Inject(p sim.InjectionPoint) *sim.Injection {
	if i.Done() {
		return nil
	}
	if p.Step < i.times[i.next] && !p.Terminal {
		return nil
	}
	kind := i.kinds[i.next]
	i.next++
	return i.build(kind, p)
}

// build draws the amplitude of one event and returns the injection. Events
// that cannot apply in the current topology (heal without an open partition,
// edge-drop on a bridge-only graph) return an empty injection: the event
// still happened and still gets a recovery record, it just had no effect.
func (i *Injector) build(kind Kind, p sim.InjectionPoint) *sim.Injection {
	injn := &sim.Injection{Label: string(kind)}
	n := p.Net.N()
	switch kind {
	case CorruptFraction:
		for u := 0; u < n; u++ {
			if i.rng.Float64() >= i.sched.Fraction {
				continue
			}
			injn.SetStates = append(injn.SetStates, sim.StateChange{Process: u, State: i.randomState(u, p.Net)})
		}
	case CorruptProcesses:
		for _, u := range i.targets(p, i.sched.Count) {
			injn.SetStates = append(injn.SetStates, sim.StateChange{Process: u, State: i.randomState(u, p.Net)})
		}
	case FakeResetWave:
		statuses := []core.Status{core.StatusRB, core.StatusRF}
		for u := 0; u < n; u++ {
			if i.rng.Float64() >= i.sched.Fraction {
				continue
			}
			sdr := core.SDRState{
				St: statuses[i.rng.Intn(len(statuses))],
				D:  i.rng.Intn(n + 1),
			}
			injn.SetStates = append(injn.SetStates, sim.StateChange{Process: u, State: core.WithSDR(p.Config.State(u), sdr)})
		}
	case NodeCrash:
		for _, u := range i.targets(p, i.sched.Count) {
			injn.SetStates = append(injn.SetStates, sim.StateChange{Process: u, State: i.alg.InitialState(u, p.Net)})
		}
	case EdgeDrop:
		injn.DropEdges = i.droppableEdges(p, i.sched.Count)
	case EdgeAdd:
		injn.AddEdges = i.missingEdges(p, i.sched.Count)
	case Partition:
		if i.healEdges == nil {
			cut := i.partitionCut(p)
			if len(cut) > 0 {
				i.healEdges = cut
				injn.DropEdges = cut
			}
		}
	case Heal:
		if i.healEdges != nil {
			for _, e := range i.healEdges {
				// EdgeAdd events may have re-inserted a cut edge meanwhile.
				if !p.Net.Graph().HasEdge(e[0], e[1]) {
					injn.AddEdges = append(injn.AddEdges, e)
				}
			}
			i.healEdges = nil
		}
	}
	return injn
}

// randomState draws a uniform state for process u from the enumerated state
// space: one Intn over StateCount. NewInjector validated enumerability for
// the kinds that call this.
func (i *Injector) randomState(u int, net *sim.Network) sim.State {
	return i.enum.StateAt(u, net, i.rng.Intn(i.enum.StateCount(u, net)))
}

// targets picks the processes a targeted event hits: count uniformly random
// distinct processes, or — under the Adversarial pattern — the closed
// neighbourhood of the current maximum-degree process (the worst place to
// hit a reset-based algorithm: every corruption there collides with the
// highest number of neighbours).
func (i *Injector) targets(p sim.InjectionPoint, count int) []int {
	n := p.Net.N()
	if i.sched.Pattern == Adversarial {
		hub := 0
		for u := 1; u < n; u++ {
			if p.Net.Degree(u) > p.Net.Degree(hub) {
				hub = u
			}
		}
		targets := make([]int, 0, p.Net.Degree(hub)+1)
		targets = append(targets, hub)
		for j, deg := 0, p.Net.Degree(hub); j < deg; j++ {
			targets = append(targets, p.Net.Neighbor(hub, j))
		}
		return targets
	}
	if count > n {
		count = n
	}
	return i.rng.Perm(n)[:count]
}

// droppableEdges picks up to count edges whose cumulative removal keeps the
// network connected, probing each candidate with a connectivity check that
// skips the edges picked so far.
func (i *Injector) droppableEdges(p sim.InjectionPoint, count int) [][2]int {
	g := p.Net.Graph()
	edges := g.Edges()
	excluded := make(map[[2]int]bool, count)
	var drops [][2]int
	for _, pi := range i.rng.Perm(len(edges)) {
		if len(drops) == count {
			break
		}
		e := edges[pi]
		excluded[e] = true
		if g.ConnectedWithout(excluded) {
			drops = append(drops, e)
		} else {
			delete(excluded, e)
		}
	}
	return drops
}

// missingEdges picks up to count uniformly random non-adjacent process
// pairs.
func (i *Injector) missingEdges(p sim.InjectionPoint, count int) [][2]int {
	g := p.Net.Graph()
	n := g.N()
	var missing [][2]int
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if !g.HasEdge(u, v) {
				missing = append(missing, [2]int{u, v})
			}
		}
	}
	if len(missing) == 0 {
		return nil
	}
	if count > len(missing) {
		count = len(missing)
	}
	perm := i.rng.Perm(len(missing))
	adds := make([][2]int, 0, count)
	for _, pi := range perm[:count] {
		adds = append(adds, missing[pi])
	}
	return adds
}

// partitionCut grows a BFS ball of ⌈n/2⌉ processes from a random start and
// returns the edges crossing the bisection (the cut removed by a Partition
// event). It returns nil when the cut would be empty (n < 2).
func (i *Injector) partitionCut(p sim.InjectionPoint) [][2]int {
	g := p.Net.Graph()
	n := g.N()
	if n < 2 {
		return nil
	}
	side := make([]bool, n)
	start := i.rng.Intn(n)
	side[start] = true
	queue := []int{start}
	size := 1
	target := (n + 1) / 2
	for len(queue) > 0 && size < target {
		u := queue[0]
		queue = queue[1:]
		for j, deg := 0, g.Degree(u); j < deg; j++ {
			v := g.Neighbor(u, j)
			if side[v] || size >= target {
				continue
			}
			side[v] = true
			size++
			queue = append(queue, v)
		}
	}
	var cut [][2]int
	for _, e := range g.Edges() {
		if side[e[0]] != side[e[1]] {
			cut = append(cut, e)
		}
	}
	return cut
}
