package sim

import (
	"fmt"

	"sdr/internal/graph"
)

// Network is the topology of a run; process u has identifier u. The paper's
// reset and unison algorithms run on anonymous networks (identifiers exist in
// the simulator but must not be read by the algorithm); the (f,g)-alliance
// algorithm requires an identified network, so identifiers are exposed
// through the View for algorithms that declare they need them.
type Network struct {
	g *graph.Graph
}

// NewNetwork builds a network over g. It panics when the graph is invalid
// (empty or disconnected), since the paper only considers connected
// networks.
func NewNetwork(g *graph.Graph) *Network {
	if err := g.Validate(); err != nil {
		panic(fmt.Sprintf("sim: %v", err))
	}
	return &Network{g: g}
}

// N returns the number of processes.
func (n *Network) N() int { return n.g.N() }

// Graph returns the current topology. An injected event with edge edits
// replaces it between two steps of a run (the returned graph itself is
// immutable), so code that must see the topology a run ended on reads it
// here after the run rather than keeping the graph the network started
// with.
func (n *Network) Graph() *graph.Graph { return n.g }

// ID returns the identifier of process u, which is u itself.
func (n *Network) ID(u int) int { return u }

// Degree returns the degree of process u.
func (n *Network) Degree(u int) int { return n.g.Degree(u) }

// Neighbor returns the i-th neighbour of process u (0 ≤ i < Degree(u)), in
// sorted order. Together with Degree it is the allocation-free adjacency
// iteration API.
func (n *Network) Neighbor(u, i int) int { return n.g.Neighbor(u, i) }

// View returns the view of process u on configuration c.
func (n *Network) View(c *Configuration, u int) View {
	checkProcessIndex(u, n.N())
	return View{net: n, cfg: c, u: u}
}

// View is the read access a rule has when evaluated at a process: its own
// state and the states of its neighbours, reached through local labels
// (neighbour indices 0..Degree()-1). Anonymous algorithms must only use
// Self, Degree and Neighbor; identified algorithms may additionally use ID
// and NeighborID.
type View struct {
	net *Network
	cfg *Configuration
	u   int
}

// Self returns the state of the process itself.
func (v View) Self() State { return v.cfg.State(v.u) }

// Degree returns the number of neighbours.
func (v View) Degree() int { return v.net.Degree(v.u) }

// Neighbor returns the state of the i-th neighbour (local label i).
func (v View) Neighbor(i int) State {
	return v.cfg.State(v.net.Neighbor(v.u, i))
}

// ID returns the identifier of the process. Only identified algorithms may
// use it.
func (v View) ID() int { return v.net.ID(v.u) }

// NeighborID returns the identifier of the i-th neighbour. Only identified
// algorithms may use it.
func (v View) NeighborID(i int) int {
	return v.net.ID(v.net.Neighbor(v.u, i))
}

// Process returns the simulator-level index of the process. It exists for
// instrumentation (traces, metrics) and must not be used in algorithm logic
// of anonymous algorithms.
func (v View) Process() int { return v.u }

// Network returns the network the view belongs to. It exists for framework
// code (composition, checkers); algorithm rules must not use it to look past
// their closed neighbourhood.
func (v View) Network() *Network { return v.net }

// AllNeighbors reports whether every neighbour state satisfies pred.
func (v View) AllNeighbors(pred func(State) bool) bool {
	for i := 0; i < v.Degree(); i++ {
		if !pred(v.Neighbor(i)) {
			return false
		}
	}
	return true
}

// CountNeighbors returns the number of neighbour states satisfying pred.
func (v View) CountNeighbors(pred func(State) bool) int {
	count := 0
	for i := 0; i < v.Degree(); i++ {
		if pred(v.Neighbor(i)) {
			count++
		}
	}
	return count
}

// Rule is a guarded action <label>: <guard> -> <action>. The guard reads the
// view; the action returns the new local state of the process. Actions must
// not mutate neighbour states (the model only allows writing one's own
// variables); the Engine enforces this by only installing the returned state.
type Rule struct {
	// Name identifies the rule in traces and move statistics.
	Name string
	// Guard reports whether the rule is enabled at the viewed process.
	Guard func(View) bool
	// Action computes the new state of the viewed process.
	Action func(View) State
}

// Algorithm is a distributed algorithm: one local program (set of rules) per
// process, plus the pre-defined initial state used by non-stabilizing runs.
type Algorithm interface {
	// Name returns a short name used in traces and benchmark tables.
	Name() string
	// Rules returns the rules of the local program. The slice is shared by
	// all processes (the program is uniform); it must not be modified.
	Rules() []Rule
	// InitialState returns the pre-defined initial state of process u
	// (the configuration γ_init of the paper's non-stabilizing algorithms).
	InitialState(u int, net *Network) State
}

// Enumerable is implemented by algorithms whose per-process state space can
// be enumerated: the fault and churn injectors draw uniform states from it,
// and exhaustive verification walks it on small networks. The space is
// addressed by position, so a uniform draw is one Intn over StateCount and
// one StateAt, whatever the shape of the space.
type Enumerable interface {
	// StateCount returns the size of process u's state space, bounded as
	// documented by the implementation (e.g. distances capped at n so that
	// the space is finite); 0 when the algorithm has no enumerable space.
	StateCount(u int, net *Network) int
	// StateAt returns the i-th state of process u's space, for
	// 0 ≤ i < StateCount(u, net). The order is part of the contract: seeded
	// corruptions draw through it.
	StateAt(u int, net *Network, i int) State
}

// StateSpace returns process u's whole state space in StateAt order.
func StateSpace(e Enumerable, u int, net *Network) []State {
	out := make([]State, e.StateCount(u, net))
	for i := range out {
		out[i] = e.StateAt(u, net, i)
	}
	return out
}

// InitialConfiguration builds γ_init for the algorithm on the network.
func InitialConfiguration(a Algorithm, net *Network) *Configuration {
	states := make([]State, net.N())
	for u := range states {
		states[u] = a.InitialState(u, net)
	}
	return NewConfiguration(states)
}

// EnabledRules returns the indices of the rules of a enabled at process u in
// configuration c. Callers that ask repeatedly about the same algorithm
// should hold an Evaluator instead.
func EnabledRules(a Algorithm, net *Network, c *Configuration, u int) []int {
	return NewEvaluator(a, net).AppendEnabledRules(nil, c, u)
}

// Enabled reports whether process u has at least one enabled rule. Callers
// that ask repeatedly about the same algorithm should hold an Evaluator
// instead.
func Enabled(a Algorithm, net *Network, c *Configuration, u int) bool {
	return NewEvaluator(a, net).Enabled(c, u)
}

// Terminal reports whether c is a terminal configuration (no process
// enabled). Callers that ask repeatedly about the same algorithm should hold
// an Evaluator instead.
func Terminal(a Algorithm, net *Network, c *Configuration) bool {
	return NewEvaluator(a, net).Terminal(c)
}
