// Package graph provides the undirected network model used throughout the
// reproduction of "Self-Stabilizing Distributed Cooperative Reset"
// (Devismes & Johnen, 2019).
//
// The communication network of the paper is a simple undirected connected
// graph G = (V, E) where V is the set of processes and E the set of edges.
// Algorithms never change the topology, they only read it; a Graph value is
// therefore immutable during execution steps. The churn subsystem, however,
// mutates the edge set *between* steps (AddEdge/RemoveEdge) to model
// topology faults — see internal/churn for the scheduling of such events.
//
// # Storage layout
//
// The canonical adjacency layout is CSR (compressed sparse row): one
// offsets array of n+1 int32 entries and one targets array holding the 2m
// neighbour indices, sorted within each node's range. Compared to the
// per-node []int slices it replaced, CSR removes n slice headers and n
// separate allocations, halves the bytes per neighbour entry, and lays all
// adjacency out contiguously — the layout the sharded engine streams over a
// million-node topology. Mutation (AddEdge/RemoveEdge) works on a per-node
// overlay that is compacted back into CSR on the next CSR() call; reads
// (Degree, Neighbor, HasEdge, iteration) are served from whichever form is
// current, so generators and churn events interleave edits and reads freely.
//
// Once compacted, the CSR arrays are only ever read, so any number of
// goroutines may call Degree/Neighbor/CSR concurrently; mutations are not
// synchronized and must happen between parallel phases (the engine's
// between-step injection boundary).
package graph

import (
	"fmt"
	"sort"
)

// Graph is a simple undirected graph over nodes 0..N-1.
//
// The zero value is an empty graph; use New, a Builder or a generator to
// build one. Neighbour lists are kept sorted so that iteration order is
// deterministic, which keeps simulations reproducible.
type Graph struct {
	n int
	m int
	// Compact CSR form: off has n+1 entries and tgt holds the 2m neighbour
	// indices, sorted within each node's off[u]:off[u+1] range. Valid when
	// adj is nil.
	off []int32
	tgt []int32
	// Mutable overlay: per-node sorted neighbour lists, non-nil while the
	// graph is being built or edited. CSR() compacts it away.
	adj [][]int32
}

// New returns an empty graph with n isolated nodes, in mutable (overlay)
// form. It panics if n is negative.
func New(n int) *Graph {
	if n < 0 {
		panic(fmt.Sprintf("graph: negative node count %d", n))
	}
	return &Graph{
		n:   n,
		adj: make([][]int32, n),
	}
}

// N returns the number of nodes.
func (g *Graph) N() int { return g.n }

// M returns the number of edges.
func (g *Graph) M() int { return g.m }

// ensureMutable explodes the CSR form into the per-node overlay so that an
// edge edit can be applied. The compact arrays are dropped; the next CSR()
// call rebuilds them.
func (g *Graph) ensureMutable() {
	if g.adj != nil {
		return
	}
	adj := make([][]int32, g.n)
	for u := 0; u < g.n; u++ {
		row := g.tgt[g.off[u]:g.off[u+1]]
		adj[u] = append(make([]int32, 0, len(row)), row...)
	}
	g.adj = adj
	g.off, g.tgt = nil, nil
}

// CSR returns the compact adjacency arrays (offsets, targets): the
// neighbours of u are targets[offsets[u]:offsets[u+1]], sorted. The graph is
// compacted first if it has pending edits. The returned slices are the
// graph's own storage — callers must not modify them, and a later mutation
// invalidates them. Call CSR (or any read) before fanning adjacency reads
// out to multiple goroutines so the compaction happens on one.
func (g *Graph) CSR() (offsets, targets []int32) {
	if g.adj != nil {
		g.compact()
	}
	return g.off, g.tgt
}

// compact rebuilds the CSR arrays from the overlay and drops it.
func (g *Graph) compact() {
	off := make([]int32, g.n+1)
	total := 0
	for u := 0; u < g.n; u++ {
		total += len(g.adj[u])
		off[u+1] = int32(total)
	}
	tgt := make([]int32, total)
	for u := 0; u < g.n; u++ {
		copy(tgt[off[u]:off[u+1]], g.adj[u])
	}
	g.off, g.tgt = off, tgt
	g.adj = nil
}

// AddEdge adds the undirected edge {u, v}.
// Self-loops and duplicate edges are rejected with an error, as the paper
// considers simple graphs only.
func (g *Graph) AddEdge(u, v int) error {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		return fmt.Errorf("graph: edge {%d,%d} out of range [0,%d)", u, v, g.n)
	}
	if u == v {
		return fmt.Errorf("graph: self-loop on node %d is not allowed", u)
	}
	if g.HasEdge(u, v) {
		return fmt.Errorf("graph: duplicate edge {%d,%d}", u, v)
	}
	g.ensureMutable()
	g.adj[u] = insertSorted(g.adj[u], int32(v))
	g.adj[v] = insertSorted(g.adj[v], int32(u))
	g.m++
	return nil
}

// MustAddEdge adds the edge {u, v} and panics on error.
// It is intended for generators and tests where the edge is known to be valid.
func (g *Graph) MustAddEdge(u, v int) {
	if err := g.AddEdge(u, v); err != nil {
		panic(err)
	}
}

// RemoveEdge removes the undirected edge {u, v}. Removing an edge that is
// not present is rejected with an error. Removal may disconnect the graph;
// callers that need connectivity (the paper's model requires it for static
// networks) must re-check with Connected or Validate.
func (g *Graph) RemoveEdge(u, v int) error {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		return fmt.Errorf("graph: edge {%d,%d} out of range [0,%d)", u, v, g.n)
	}
	if !g.HasEdge(u, v) {
		return fmt.Errorf("graph: edge {%d,%d} is not present", u, v)
	}
	g.ensureMutable()
	g.adj[u] = deleteSorted(g.adj[u], int32(v))
	g.adj[v] = deleteSorted(g.adj[v], int32(u))
	g.m--
	return nil
}

// MustRemoveEdge removes the edge {u, v} and panics on error.
func (g *Graph) MustRemoveEdge(u, v int) {
	if err := g.RemoveEdge(u, v); err != nil {
		panic(err)
	}
}

// HasEdge reports whether {u, v} is an edge of the graph.
func (g *Graph) HasEdge(u, v int) bool {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		return false
	}
	ns := g.row(u)
	i := sort.Search(len(ns), func(i int) bool { return ns[i] >= int32(v) })
	return i < len(ns) && ns[i] == int32(v)
}

// row returns u's sorted neighbour list in whichever form is current.
func (g *Graph) row(u int) []int32 {
	if g.adj != nil {
		return g.adj[u]
	}
	return g.tgt[g.off[u]:g.off[u+1]]
}

// Degree returns the degree of node u.
func (g *Graph) Degree(u int) int {
	if g.adj != nil {
		return len(g.adj[u])
	}
	return int(g.off[u+1] - g.off[u])
}

// Neighbor returns the i-th neighbour of u (0 ≤ i < Degree(u)), in sorted
// order. Together with Degree it is the allocation-free iteration API.
func (g *Graph) Neighbor(u, i int) int {
	if g.adj != nil {
		return int(g.adj[u][i])
	}
	return int(g.tgt[int(g.off[u])+i])
}

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

// Clone returns a deep copy of the graph, in the same (compact or mutable)
// form.
func (g *Graph) Clone() *Graph {
	c := &Graph{n: g.n, m: g.m}
	if g.adj != nil {
		c.adj = make([][]int32, g.n)
		for u := 0; u < g.n; u++ {
			c.adj[u] = append([]int32(nil), g.adj[u]...)
		}
		return c
	}
	c.off = append([]int32(nil), g.off...)
	c.tgt = append([]int32(nil), g.tgt...)
	return c
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
func (g *Graph) Connected() bool {
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
			if !seen[v] {
				seen[v] = true
				count++
				stack = append(stack, int(v))
			}
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

func insertSorted(s []int32, v int32) []int32 {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= v })
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

func deleteSorted(s []int32, v int32) []int32 {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= v })
	copy(s[i:], s[i+1:])
	return s[:len(s)-1]
}
