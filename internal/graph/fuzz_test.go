package graph

import (
	"fmt"
	"maps"
	"slices"
	"testing"
)

// edgeModel is the reference for FromEdges and WithEdits: a plain set of
// normalized edges {u<v} on n nodes, edited one edge at a time.
type edgeModel struct {
	n     int
	edges map[[2]int]bool
}

func normEdge(e [2]int) [2]int { return [2]int{min(e[0], e[1]), max(e[0], e[1])} }

// check reports whether e can be an edge on the model's nodes at all.
func (m *edgeModel) check(e [2]int) error {
	if e[0] < 0 || e[0] >= m.n || e[1] < 0 || e[1] >= m.n {
		return fmt.Errorf("out of range")
	}
	if e[0] == e[1] {
		return fmt.Errorf("self-loop")
	}
	return nil
}

func (m *edgeModel) add(e [2]int) error {
	if err := m.check(e); err != nil {
		return err
	}
	if m.edges[normEdge(e)] {
		return fmt.Errorf("duplicate")
	}
	m.edges[normEdge(e)] = true
	return nil
}

func (m *edgeModel) drop(e [2]int) error {
	if err := m.check(e); err != nil {
		return err
	}
	if !m.edges[normEdge(e)] {
		return fmt.Errorf("absent")
	}
	delete(m.edges, normEdge(e))
	return nil
}

// matches fails t unless g has the model's node count, edge count, edge
// list and sorted neighbour rows.
func (m *edgeModel) matches(t *testing.T, g *Graph) {
	t.Helper()
	want := slices.SortedFunc(maps.Keys(m.edges), func(a, b [2]int) int {
		if a[0] != b[0] {
			return a[0] - b[0]
		}
		return a[1] - b[1]
	})
	if g.N() != m.n || g.M() != len(want) {
		t.Fatalf("n=%d m=%d, model n=%d m=%d", g.N(), g.M(), m.n, len(want))
	}
	if got := g.Edges(); !slices.Equal(got, want) {
		t.Fatalf("edges %v, model %v", got, want)
	}
	rows := make([][]int, m.n)
	for _, e := range want {
		rows[e[0]] = append(rows[e[0]], e[1])
		rows[e[1]] = append(rows[e[1]], e[0])
	}
	for u, row := range rows {
		slices.Sort(row)
		got := make([]int, g.Degree(u))
		for i := range got {
			got[i] = g.Neighbor(u, i)
		}
		if !slices.Equal(got, row) {
			t.Fatalf("row %d = %v, model %v", u, got, row)
		}
	}
}

// decodeEdits turns fuzz bytes into a node count n ≤ 64, a base edge list
// and a drop/add edit set. data[0] picks n, data[1] and data[2] the base and
// drop lengths; the rest are (u, v) byte pairs, base edges first, then
// drops, then adds. A node byte maps into [-1, n], so both out-of-range
// ends stay reachable.
func decodeEdits(data []byte) (n int, base, drop, add [][2]int) {
	if len(data) < 3 {
		return 1, nil, nil, nil
	}
	n = int(data[0])%64 + 1
	nBase, nDrop := int(data[1]), int(data[2])
	node := func(b byte) int { return int(b)%(n+2) - 1 }
	for i := 3; i+1 < len(data); i += 2 {
		e := [2]int{node(data[i]), node(data[i+1])}
		switch {
		case len(base) < nBase:
			base = append(base, e)
		case len(drop) < nDrop:
			drop = append(drop, e)
		default:
			add = append(add, e)
		}
	}
	return n, base, drop, add
}

// FuzzWithEdits checks FromEdges and WithEdits against edgeModel: valid
// inputs build exactly the model's graph, and every invalid edge (out of
// range, self-loop, duplicate, dropping an absent edge, adding a present
// one) is an error, never a panic, and leaves the receiver unchanged.
func FuzzWithEdits(f *testing.F) {
	f.Add([]byte{5, 4, 1, 0, 1, 1, 2, 2, 3, 3, 4, 1, 2, 0, 4})  // path, drop one, add one
	f.Add([]byte{3, 1, 1, 0, 1, 0, 1, 1, 0})                    // drop and re-add the same edge
	f.Add([]byte{3, 1, 1, 0, 1, 1, 2})                          // drop an absent edge
	f.Add([]byte{3, 1, 0, 0, 1, 1, 0})                          // add a present edge
	f.Add([]byte{3, 1, 0, 0, 1, 2, 2})                          // add a self-loop
	f.Add([]byte{3, 0, 0, 0, 4})                                // add out of range
	f.Add([]byte{4, 2, 0, 0, 1, 1, 0})                          // duplicate base edge
	f.Add([]byte{63, 3, 2, 1, 2, 3, 4, 5, 6, 1, 2, 3, 4, 7, 8}) // larger n
	f.Fuzz(func(t *testing.T, data []byte) {
		n, base, drop, add := decodeEdits(data)
		model := &edgeModel{n: n, edges: make(map[[2]int]bool)}
		var modelErr error
		for _, e := range base {
			if modelErr = model.add(e); modelErr != nil {
				break
			}
		}
		g, err := FromEdges(n, base)
		if (err != nil) != (modelErr != nil) {
			t.Fatalf("FromEdges(%d, %v): err=%v, model err=%v", n, base, err, modelErr)
		}
		if err != nil {
			return
		}
		model.matches(t, g)
		before := g.Edges()

		for _, e := range drop {
			if modelErr = model.drop(e); modelErr != nil {
				break
			}
		}
		if modelErr == nil {
			for _, e := range add {
				if modelErr = model.add(e); modelErr != nil {
					break
				}
			}
		}
		h, err := g.WithEdits(drop, add)
		if (err != nil) != (modelErr != nil) {
			t.Fatalf("WithEdits(%v, %v) on %v: err=%v, model err=%v", drop, add, before, err, modelErr)
		}
		if !slices.Equal(g.Edges(), before) {
			t.Fatal("WithEdits modified its receiver")
		}
		if err == nil {
			model.matches(t, h)
		}
	})
}
