package graph

import (
	"fmt"
	"slices"
)

// Builder accumulates an edge list and compiles it into a Graph in CSR
// form, without ever materializing per-node slices: two counting passes
// plus one sort per node, which is what makes million-node topologies cheap
// to generate. It is the only way a Graph is built from scratch.
type Builder struct {
	n      int
	us, vs []int32
	// err is the first invalid input (negative n, out-of-range edge,
	// self-loop); Graph returns it.
	err error
}

// NewBuilder returns a builder for a graph on n nodes, pre-sizing the edge
// list for edgeHint edges (0 is fine). A negative n is reported by Graph.
func NewBuilder(n, edgeHint int) *Builder {
	b := &Builder{n: n}
	if n < 0 {
		b.n, b.err = 0, fmt.Errorf("graph: negative node count %d", n)
	}
	if edgeHint > 0 {
		b.us, b.vs = make([]int32, 0, edgeHint), make([]int32, 0, edgeHint)
	}
	return b
}

// Add records the undirected edge {u, v}. An out-of-range edge or a
// self-loop is kept as the builder's error and reported by Graph, like a
// duplicate edge.
func (b *Builder) Add(u, v int) {
	if b.err != nil {
		return
	}
	if b.err = checkEdge(u, v, b.n); b.err != nil {
		return
	}
	b.us = append(b.us, int32(u))
	b.vs = append(b.vs, int32(v))
}

// Graph compiles the accumulated edges into a CSR graph: count degrees,
// prefix-sum into offsets, scatter both edge directions, sort each node's
// range, and reject duplicates. It returns the first invalid input instead
// when there was one. The returned graph owns fresh arrays.
func (b *Builder) Graph() (*Graph, error) {
	if b.err != nil {
		return nil, b.err
	}
	off := make([]int32, b.n+1)
	for i := range b.us {
		off[b.us[i]+1]++
		off[b.vs[i]+1]++
	}
	for u := 0; u < b.n; u++ {
		off[u+1] += off[u]
	}
	tgt := make([]int32, 2*len(b.us))
	next := make([]int32, b.n)
	copy(next, off[:b.n])
	for i := range b.us {
		u, v := b.us[i], b.vs[i]
		tgt[next[u]] = v
		next[u]++
		tgt[next[v]] = u
		next[v]++
	}
	for u := 0; u < b.n; u++ {
		row := tgt[off[u]:off[u+1]]
		slices.Sort(row)
		for i := 1; i < len(row); i++ {
			if row[i] == row[i-1] {
				return nil, fmt.Errorf("graph: duplicate edge {%d,%d}", u, row[i])
			}
		}
	}
	return &Graph{n: b.n, m: len(b.us), off: off, tgt: tgt}, nil
}

// MustGraph is Graph for edge sets known to be valid (the generators); it
// panics on error.
func (b *Builder) MustGraph() *Graph {
	g, err := b.Graph()
	if err != nil {
		panic(err)
	}
	return g
}

// FromEdges builds a graph with n nodes and the given edge list. A negative
// n, an out-of-range edge, a self-loop or a duplicate edge is an error.
func FromEdges(n int, edges [][2]int) (*Graph, error) {
	b := NewBuilder(n, len(edges))
	for _, e := range edges {
		b.Add(e[0], e[1])
	}
	return b.Graph()
}
