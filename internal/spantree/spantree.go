// Package spantree implements a third instantiation of the cooperative reset:
// a silent self-stabilizing breadth-first spanning tree construction for
// rooted identified networks, obtained by composing a simple
// (non self-stabilizing) BFS algorithm with Algorithm SDR.
//
// The paper presents SDR as a general method: any locally checkable input
// algorithm becomes self-stabilizing through the composition, and static
// specifications yield silent algorithms (Section 1.1). The unison and
// (f,g)-alliance instantiations are the two the paper evaluates; this package
// exercises the claim on the classical BFS-tree benchmark used by the related
// work the paper cites (Huang-Chen, and the silent BFS constructions revisited
// in [22]).
//
// Algorithm B: every process u maintains a distance dist_u and a parent
// pointer par_u (the identifier of a neighbour, or ⊥). The root keeps
// (0, ⊥); every other process starts at (maxDist, ⊥) and repeatedly adopts
// min_{v ∈ N(u)} dist_v + 1 as its distance, pointing par_u at a neighbour
// realising the minimum. Distances only decrease, so B terminates from its
// initial configuration; at termination dist equals the true breadth-first
// distance from the root and the parent pointers form a BFS spanning tree.
package spantree

import (
	"fmt"
	"strconv"

	"sdr/internal/core"
	"sdr/internal/graph"
	"sdr/internal/sim"
)

// NoParent is the ⊥ value of the parent pointer.
const NoParent = -1

// NodeState is the local state of Algorithm B: the distance estimate and the
// parent pointer (a neighbour identifier, or NoParent).
type NodeState struct {
	// Dist is the current distance estimate to the root.
	Dist int
	// Parent is the identifier of the parent neighbour, or NoParent.
	Parent int
}

var _ sim.State = NodeState{}

// Equal implements sim.State.
func (s NodeState) Equal(other sim.State) bool {
	o, ok := other.(NodeState)
	return ok && s == o
}

// String implements sim.State.
func (s NodeState) String() string {
	if s.Parent == NoParent {
		return fmt.Sprintf("d=%d p=⊥", s.Dist)
	}
	return fmt.Sprintf("d=%d p=%d", s.Dist, s.Parent)
}

// AppendStateKey implements sim.KeyAppender: exactly the String() bytes,
// without allocating.
func (s NodeState) AppendStateKey(dst []byte) []byte {
	dst = append(dst, "d="...)
	dst = strconv.AppendInt(dst, int64(s.Dist), 10)
	dst = append(dst, " p="...)
	if s.Parent == NoParent {
		return append(dst, "⊥"...)
	}
	return strconv.AppendInt(dst, int64(s.Parent), 10)
}

// Key64 implements sim.KeyedState: the zigzagged distance and parent packed
// half-and-half, when both fit 32 bits.
func (s NodeState) Key64() (uint64, bool) {
	zd, zp := sim.ZigZag64(s.Dist), sim.ZigZag64(s.Parent)
	if zd >= 1<<32 || zp >= 1<<32 {
		return 0, false
	}
	return zd<<32 | zp, true
}

// BFS is Algorithm B, designed to be composed with SDR. It implements
// core.Resettable for a fixed root identifier and a fixed distance cap
// maxDist (the "infinity" value of unreached processes; any value at least
// the number of processes works).
type BFS struct {
	rootID  int
	maxDist int
}

var (
	_ core.Resettable      = (*BFS)(nil)
	_ core.InnerEnumerable = (*BFS)(nil)
)

// New returns Algorithm B rooted at the process with identifier rootID,
// using maxDist as the unreached-distance value. It panics when maxDist < 1.
func New(rootID, maxDist int) *BFS {
	if maxDist < 1 {
		panic(fmt.Sprintf("spantree: maxDist must be at least 1, got %d", maxDist))
	}
	return &BFS{rootID: rootID, maxDist: maxDist}
}

// NewFor returns Algorithm B for the given topology, rooted at the process
// with index rootProcess (identifier rootProcess under the default identifier
// assignment) and maxDist = n.
func NewFor(g *graph.Graph, rootProcess int) *BFS {
	if rootProcess < 0 || rootProcess >= g.N() {
		panic(fmt.Sprintf("spantree: root %d out of range [0,%d)", rootProcess, g.N()))
	}
	return New(rootProcess, g.N())
}

// Name implements core.Resettable.
func (b *BFS) Name() string { return fmt.Sprintf("BFS(root=%d)", b.rootID) }

// isRoot reports whether the viewed process is the root.
func (b *BFS) isRoot(v core.InnerView) bool { return v.ID() == b.rootID }

// stateOf extracts a NodeState. A foreign state type is a wiring mistake,
// and the bare type assertion panics on it with the runtime's message naming
// both types; a formatted panic would keep this per-neighbour read from
// inlining.
func stateOf(s sim.State) NodeState { return s.(NodeState) }

// resetFor returns the pre-defined state of a process: (0, ⊥) for the root,
// (maxDist, ⊥) for every other process.
func (b *BFS) resetFor(id int) NodeState {
	if id == b.rootID {
		return NodeState{Dist: 0, Parent: NoParent}
	}
	return NodeState{Dist: b.maxDist, Parent: NoParent}
}

// InitialInner implements core.Resettable.
func (b *BFS) InitialInner(u int, net *sim.Network) sim.State { return b.resetFor(net.ID(u)) }

// ResetState implements core.Resettable.
func (b *BFS) ResetState(u int, net *sim.Network) sim.State { return b.resetFor(net.ID(u)) }

// IsReset implements core.Resettable: P_reset(u) recognises exactly the
// pre-defined state of process u — (0, ⊥) for the root, (maxDist, ⊥) for
// every other process. The distinction matters: accepting (0, ⊥) at a
// non-root would let a reset terminate in a locally incorrect state,
// breaking Requirement 2d and the no-alive-root-creation property.
func (b *BFS) IsReset(u int, net *sim.Network, inner sim.State) bool {
	s, ok := inner.(NodeState)
	if !ok {
		return false
	}
	return s.Equal(b.resetFor(net.ID(u)))
}

// parentDist returns the distance of the neighbour the parent pointer names,
// and whether such a neighbour exists.
func (b *BFS) parentDist(v core.InnerView, parent int) (int, bool) {
	for i := 0; i < v.Degree(); i++ {
		if v.NeighborID(i) == parent {
			return stateOf(v.Neighbor(i)).Dist, true
		}
	}
	return 0, false
}

// minNeighborDist returns the minimum distance among the neighbours and the
// identifier of the smallest-identifier neighbour realising it.
func (b *BFS) minNeighborDist(v core.InnerView) (dist, id int) {
	dist, id = b.maxDist, NoParent
	for i := 0; i < v.Degree(); i++ {
		d := stateOf(v.Neighbor(i)).Dist
		nid := v.NeighborID(i)
		if d < dist || (d == dist && (id == NoParent || nid < id)) {
			dist, id = d, nid
		}
	}
	return dist, id
}

// ICorrect implements core.Resettable. The local invariant is:
//
//	root u:     dist_u = 0 ∧ par_u = ⊥
//	other u:    1 ≤ dist_u ≤ maxDist ∧
//	            (dist_u = maxDist ∧ par_u = ⊥) ∨
//	            (par_u ∈ N(u) ∧ dist_u ≥ dist_{par_u} + 1)
//
// It holds in the pre-defined configuration, is closed under Algorithm B's
// moves (distances only decrease), and, in a terminal configuration, forces
// dist to be the exact BFS distance and the parent pointers to form a BFS
// spanning tree.
func (b *BFS) ICorrect(v core.InnerView) bool {
	self := stateOf(v.Self())
	if b.isRoot(v) {
		return self.Dist == 0 && self.Parent == NoParent
	}
	if self.Dist < 1 || self.Dist > b.maxDist {
		return false
	}
	if self.Parent == NoParent {
		return self.Dist == b.maxDist
	}
	pd, ok := b.parentDist(v, self.Parent)
	return ok && self.Dist >= pd+1
}

// Decide implements core.Resettable: one scan of the neighbours finds the
// parent's distance for P_ICorrect(u) and the minimum neighbour distance for
// the adopt rule.
func (b *BFS) Decide(v core.InnerView) (correct bool, rule int) {
	self := stateOf(v.Self())
	if b.isRoot(v) {
		return self.Dist == 0 && self.Parent == NoParent, -1
	}
	if self.Dist < 1 || self.Dist > b.maxDist || (self.Parent == NoParent && self.Dist != b.maxDist) {
		return false, -1
	}
	minDist, parentFound := b.maxDist, self.Parent == NoParent
	for i, deg := 0, v.Degree(); i < deg; i++ {
		d := stateOf(v.Neighbor(i)).Dist
		minDist = min(minDist, d)
		if !parentFound && v.NeighborID(i) == self.Parent {
			if self.Dist < d+1 {
				return false, -1
			}
			parentFound = true
		}
	}
	if !parentFound {
		return false, -1
	}
	if minDist+1 < self.Dist && v.Clean() {
		return true, 0
	}
	return true, -1
}

// RuleAdopt is the name of Algorithm B's single rule.
const RuleAdopt = "adopt"

// InnerRules implements core.Resettable: a non-root process adopts the
// minimum neighbour distance plus one whenever that improves its own
// distance.
func (b *BFS) InnerRules() []core.InnerRule {
	return []core.InnerRule{{
		Name: RuleAdopt,
		Guard: func(v core.InnerView) bool {
			if !v.Clean() || b.isRoot(v) {
				return false
			}
			minDist, _ := b.minNeighborDist(v)
			return minDist+1 < stateOf(v.Self()).Dist
		},
		Action: func(v core.InnerView) sim.State {
			minDist, id := b.minNeighborDist(v)
			return NodeState{Dist: minDist + 1, Parent: id}
		},
	}}
}

// InnerStateCount implements core.InnerEnumerable: distances 0..maxDist and
// parents in {⊥} ∪ identifiers of the neighbourhood.
func (b *BFS) InnerStateCount(u int, net *sim.Network) int {
	return (b.maxDist + 1) * (net.Degree(u) + 1)
}

// InnerStateAt implements core.InnerEnumerable: distances outermost, the
// parent pointer (⊥ first, then the neighbours in local-label order)
// innermost.
func (b *BFS) InnerStateAt(u int, net *sim.Network, i int) sim.State {
	span := net.Degree(u) + 1
	d, pi := i/span, i%span
	if pi == 0 {
		return NodeState{Dist: d, Parent: NoParent}
	}
	return NodeState{Dist: d, Parent: net.ID(net.Neighbor(u, pi-1))}
}

// NewSelfStabilizing returns the silent self-stabilizing BFS spanning tree
// construction B ∘ SDR for the given topology and root process.
func NewSelfStabilizing(g *graph.Graph, rootProcess int) *core.Composed {
	return core.Compose(NewFor(g, rootProcess))
}

// Distances extracts the per-process distance estimates from a configuration
// of B (plain NodeState) or of B ∘ SDR (composed states).
func Distances(c *sim.Configuration) []int {
	out := make([]int, c.N())
	for u := 0; u < c.N(); u++ {
		out[u] = stateOf(innerOf(c.State(u))).Dist
	}
	return out
}

// Parents extracts the per-process parent identifiers from a configuration of
// B or of B ∘ SDR.
func Parents(c *sim.Configuration) []int {
	out := make([]int, c.N())
	for u := 0; u < c.N(); u++ {
		out[u] = stateOf(innerOf(c.State(u))).Parent
	}
	return out
}

func innerOf(s sim.State) sim.State {
	if cs, ok := s.(core.ComposedState); ok {
		return cs.Inner
	}
	return s
}

// VerifyTree checks that the distances and parent pointers of the
// configuration form a correct BFS spanning tree of g rooted at rootProcess
// (under the default identifier assignment id(u) = u): every distance equals
// the true breadth-first distance, the root has no parent, and every other
// process's parent is a neighbour one step closer to the root.
func VerifyTree(g *graph.Graph, rootProcess int, c *sim.Configuration) error {
	trueDist := g.BFS(rootProcess)
	dists := Distances(c)
	parents := Parents(c)
	for u := 0; u < g.N(); u++ {
		if dists[u] != trueDist[u] {
			return fmt.Errorf("spantree: process %d has distance %d, true distance is %d", u, dists[u], trueDist[u])
		}
		if u == rootProcess {
			if parents[u] != NoParent {
				return fmt.Errorf("spantree: the root %d has parent %d", u, parents[u])
			}
			continue
		}
		p := parents[u]
		if p == NoParent {
			return fmt.Errorf("spantree: process %d has no parent", u)
		}
		if !g.HasEdge(u, p) {
			return fmt.Errorf("spantree: process %d's parent %d is not a neighbour", u, p)
		}
		if trueDist[p] != trueDist[u]-1 {
			return fmt.Errorf("spantree: process %d (distance %d) points at %d (distance %d)", u, trueDist[u], p, trueDist[p])
		}
	}
	return nil
}
