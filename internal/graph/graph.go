// Package graph provides the undirected network model used throughout the
// reproduction of "Self-Stabilizing Distributed Cooperative Reset"
// (Devismes & Johnen, 2019).
//
// The communication network of the paper is a simple undirected connected
// graph G = (V, E) where V is the set of processes and E the set of edges.
// Algorithms never change the topology, they only read it. The churn
// subsystem changes the edge set *between* steps to model topology faults
// (see internal/churn); it does so by building the next graph with
// WithEdits, never by editing one in place.
//
// # Storage layout
//
// A Graph has one storage form, CSR (compressed sparse row): one offsets
// array of n+1 int32 entries and one targets array holding the 2m
// neighbour indices, sorted within each node's range. All adjacency lies
// contiguously, which is what the sharded engine streams over a
// million-node topology, and Degree/Neighbor are two array reads with no
// branch. Graphs are built by a Builder (every generator, New, FromEdges,
// UnmarshalJSON) or derived from another graph by WithEdits, which merges
// an edit set into a fresh pair of arrays in one O(n+m) pass.
//
// A Graph is immutable once built, so any number of goroutines and runs may
// read one concurrently, and a *Graph may be shared freely.
package graph

import (
	"fmt"
	"slices"
)

// Graph is an immutable simple undirected graph over nodes 0..N-1.
//
// The zero value is an empty graph; use New, a Builder or a generator to
// build one. Neighbour lists are kept sorted so that iteration order is
// deterministic, which keeps simulations reproducible.
type Graph struct {
	n int
	m int
	// off has n+1 entries and tgt holds the 2m neighbour indices, sorted
	// within each node's off[u]:off[u+1] range.
	off []int32
	tgt []int32
}

// N returns the number of nodes.
func (g *Graph) N() int { return g.n }

// M returns the number of edges.
func (g *Graph) M() int { return g.m }

// checkEdge reports an edge that cannot belong to a simple graph on n nodes.
func checkEdge(u, v, n int) error {
	if u < 0 || u >= n || v < 0 || v >= n {
		return fmt.Errorf("graph: edge {%d,%d} out of range [0,%d)", u, v, n)
	}
	if u == v {
		return fmt.Errorf("graph: self-loop on node %d is not allowed", u)
	}
	return nil
}

// edit is one directed half of an edge edit: v enters (add) or leaves
// (!add) u's neighbour row.
type edit struct {
	u, v int32
	add  bool
}

// WithEdits returns the graph obtained by removing the edges of drop and
// then inserting the edges of add, as if applied one by one in that order.
// It fails, and builds nothing, when an edge is out of range or a
// self-loop, when a dropped edge is not present at its turn, or when an
// added edge is already present at its turn (so an edge may be dropped and
// re-added in one call, but not dropped or added twice). g is not modified;
// with no edits the result is g itself. The next graph is built in one
// O(n + m + k log k) pass over g's arrays, for k edits.
func (g *Graph) WithEdits(drop, add [][2]int) (*Graph, error) {
	if len(drop) == 0 && len(add) == 0 {
		return g, nil
	}
	// delta holds the net edit of every touched edge {u<v}: -1 dropped, +1
	// added; an edge dropped and re-added cancels out.
	delta := make(map[[2]int]int, len(drop)+len(add))
	for _, e := range drop {
		if err := checkEdge(e[0], e[1], g.n); err != nil {
			return nil, err
		}
		k := [2]int{min(e[0], e[1]), max(e[0], e[1])}
		if !g.HasEdge(e[0], e[1]) || delta[k] != 0 {
			return nil, fmt.Errorf("graph: edge {%d,%d} is not present", e[0], e[1])
		}
		delta[k] = -1
	}
	for _, e := range add {
		if err := checkEdge(e[0], e[1], g.n); err != nil {
			return nil, err
		}
		k := [2]int{min(e[0], e[1]), max(e[0], e[1])}
		switch d := delta[k]; {
		case d == -1:
			delete(delta, k)
		case d == 1 || g.HasEdge(e[0], e[1]):
			return nil, fmt.Errorf("graph: duplicate edge {%d,%d}", e[0], e[1])
		default:
			delta[k] = 1
		}
	}

	edits := make([]edit, 0, 2*len(delta))
	for k, d := range delta {
		u, v := int32(k[0]), int32(k[1])
		edits = append(edits, edit{u, v, d > 0}, edit{v, u, d > 0})
	}
	slices.SortFunc(edits, func(a, b edit) int {
		if a.u != b.u {
			return int(a.u - b.u)
		}
		return int(a.v - b.v)
	})
	// One merge pass: copy each row up to its next edit, insert or skip
	// the edited neighbour, and copy the rest.
	off := make([]int32, g.n+1)
	tgt := make([]int32, 0, len(g.tgt)+2*len(add))
	for u, j := 0, 0; u < g.n; u++ {
		row := g.row(u)
		for ; j < len(edits) && edits[j].u == int32(u); j++ {
			i, _ := slices.BinarySearch(row, edits[j].v)
			tgt = append(tgt, row[:i]...)
			if row = row[i:]; edits[j].add {
				tgt = append(tgt, edits[j].v)
			} else {
				row = row[1:] // row[0] is the dropped neighbour
			}
		}
		tgt = append(tgt, row...)
		off[u+1] = int32(len(tgt))
	}
	return &Graph{n: g.n, m: len(tgt) / 2, off: off, tgt: tgt}, nil
}

// HasEdge reports whether {u, v} is an edge of the graph.
func (g *Graph) HasEdge(u, v int) bool {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		return false
	}
	_, ok := slices.BinarySearch(g.row(u), int32(v))
	return ok
}

// row returns u's sorted neighbour list.
func (g *Graph) row(u int) []int32 { return g.tgt[g.off[u]:g.off[u+1]] }

// Degree returns the degree of node u.
func (g *Graph) Degree(u int) int { return int(g.off[u+1] - g.off[u]) }

// Neighbor returns the i-th neighbour of u (0 ≤ i < Degree(u)), in sorted
// order. Together with Degree it is the allocation-free iteration API.
func (g *Graph) Neighbor(u, i int) int { return int(g.tgt[int(g.off[u])+i]) }

// MaxDegree returns Δ, the maximum degree of the graph (0 for an empty graph).
func (g *Graph) MaxDegree() int {
	d := 0
	for u := 0; u < g.n; u++ {
		if deg := g.Degree(u); deg > d {
			d = deg
		}
	}
	return d
}

// MinDegree returns the minimum degree of the graph (0 for an empty graph).
func (g *Graph) MinDegree() int {
	if g.n == 0 {
		return 0
	}
	d := g.Degree(0)
	for u := 1; u < g.n; u++ {
		if deg := g.Degree(u); deg < d {
			d = deg
		}
	}
	return d
}

// Edges returns all edges {u, v} with u < v, in deterministic order.
func (g *Graph) Edges() [][2]int {
	edges := make([][2]int, 0, g.m)
	for u := 0; u < g.n; u++ {
		for _, v := range g.row(u) {
			if int32(u) < v {
				edges = append(edges, [2]int{u, int(v)})
			}
		}
	}
	return edges
}

// Equal reports whether g and h have the same node count and edge set.
func (g *Graph) Equal(h *Graph) bool {
	if g.n != h.n || g.m != h.m {
		return false
	}
	for u := 0; u < g.n; u++ {
		gr, hr := g.row(u), h.row(u)
		if len(gr) != len(hr) {
			return false
		}
		for i, v := range gr {
			if hr[i] != v {
				return false
			}
		}
	}
	return true
}

// Connected reports whether the graph is connected.
// The empty graph and the single-node graph are considered connected.
func (g *Graph) Connected() bool { return g.ConnectedWithout(nil) }

// ConnectedWithout reports whether the graph stays connected once the
// excluded edges, keyed {u, v} with u < v, are removed. It probes a
// candidate edit without building the edited graph.
func (g *Graph) ConnectedWithout(excluded map[[2]int]bool) bool {
	if g.n <= 1 {
		return true
	}
	seen := make([]bool, g.n)
	stack := []int{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range g.row(u) {
			if seen[v] || excluded != nil && excluded[[2]int{min(u, int(v)), max(u, int(v))}] {
				continue
			}
			seen[v] = true
			count++
			stack = append(stack, int(v))
		}
	}
	return count == g.n
}

// Validate returns an error when the graph is not a valid network for the
// paper's model: it must be non-empty and connected.
func (g *Graph) Validate() error {
	if g.n == 0 {
		return fmt.Errorf("graph: network must contain at least one process")
	}
	if !g.Connected() {
		return fmt.Errorf("graph: network must be connected (%d nodes, %d edges)", g.n, g.m)
	}
	return nil
}

// String returns a short human-readable description.
func (g *Graph) String() string {
	return fmt.Sprintf("graph(n=%d, m=%d, Δ=%d)", g.n, g.m, g.MaxDegree())
}
