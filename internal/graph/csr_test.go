package graph

import (
	"math/rand"
	"slices"
	"testing"
)

// randomSimple builds a random simple connected graph, a spanning path plus
// extra random edges, and returns it with its edge list.
func randomSimple(t *testing.T, n int, extra int, seed int64) (*Graph, [][2]int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[[2]int]bool)
	var edges [][2]int
	for u := 1; u < n; u++ {
		seen[[2]int{u - 1, u}] = true
		edges = append(edges, [2]int{u - 1, u})
	}
	for len(edges) < n-1+extra {
		u, v := rng.Intn(n), rng.Intn(n)
		e := [2]int{min(u, v), max(u, v)}
		if u == v || seen[e] {
			continue
		}
		seen[e] = true
		edges = append(edges, [2]int{u, v})
	}
	g, err := FromEdges(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g, edges
}

// checkCSR checks the invariants of g's arrays: offsets are monotone with
// off[0]=0 and off[n]=2m, every row is strictly sorted, and the relation is
// symmetric.
func checkCSR(t *testing.T, g *Graph) {
	t.Helper()
	off, tgt := g.off, g.tgt
	if len(off) != g.N()+1 {
		t.Fatalf("len(off) = %d, want %d", len(off), g.N()+1)
	}
	if off[0] != 0 || int(off[g.N()]) != 2*g.M() {
		t.Fatalf("off bounds = [%d, %d], want [0, %d]", off[0], off[g.N()], 2*g.M())
	}
	if len(tgt) != 2*g.M() {
		t.Fatalf("len(tgt) = %d, want %d", len(tgt), 2*g.M())
	}
	for u := 0; u < g.N(); u++ {
		if off[u] > off[u+1] {
			t.Fatalf("off not monotone at %d: %d > %d", u, off[u], off[u+1])
		}
		row := tgt[off[u]:off[u+1]]
		for i, v := range row {
			if i > 0 && row[i-1] >= v {
				t.Fatalf("row %d not strictly sorted: %v", u, row)
			}
			if !g.HasEdge(int(v), u) {
				t.Fatalf("edge {%d,%d} present but not its mirror", u, v)
			}
		}
	}
}

func TestCSRStructure(t *testing.T) {
	g, _ := randomSimple(t, 200, 300, 7)
	checkCSR(t, g)
}

// TestCSRReadsMatchEdgeSet checks that Degree, Neighbor and HasEdge answer
// from the CSR arrays exactly what the edge list the graph was built from
// says.
func TestCSRReadsMatchEdgeSet(t *testing.T) {
	g, edges := randomSimple(t, 150, 200, 11)
	rows := make([][]int, g.N())
	for _, e := range edges {
		rows[e[0]] = append(rows[e[0]], e[1])
		rows[e[1]] = append(rows[e[1]], e[0])
	}
	for u, row := range rows {
		slices.Sort(row)
		if g.Degree(u) != len(row) {
			t.Fatalf("Degree(%d) = %d, want %d", u, g.Degree(u), len(row))
		}
		for i, v := range row {
			if g.Neighbor(u, i) != v {
				t.Fatalf("Neighbor(%d,%d) = %d, want %d", u, i, g.Neighbor(u, i), v)
			}
		}
		for v := 0; v < g.N(); v++ {
			if _, want := slices.BinarySearch(row, v); g.HasEdge(u, v) != want {
				t.Fatalf("HasEdge(%d,%d) = %v, want %v", u, v, !want, want)
			}
		}
	}
}

// TestWithEditsRoundTrip checks that WithEdits leaves its receiver's arrays
// untouched, builds consistent arrays for the result, and that undoing the
// edits rebuilds the original edge set.
func TestWithEditsRoundTrip(t *testing.T) {
	g, _ := randomSimple(t, 64, 40, 3)
	off, tgt := slices.Clone(g.off), slices.Clone(g.tgt)
	drop, add := [][2]int{{0, 1}}, [][2]int{firstNonEdge(g), {63, 0}}
	if g.HasEdge(63, 0) {
		add = add[:1]
	}
	h, err := g.WithEdits(drop, add)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(g.off, off) || !slices.Equal(g.tgt, tgt) {
		t.Fatal("WithEdits modified its receiver")
	}
	checkCSR(t, h)
	if h.HasEdge(0, 1) || h.M() != g.M()-len(drop)+len(add) {
		t.Fatalf("edits not applied: HasEdge(0,1)=%v m=%d", h.HasEdge(0, 1), h.M())
	}
	for _, e := range add {
		if !h.HasEdge(e[0], e[1]) {
			t.Fatalf("added edge %v missing", e)
		}
	}
	back, err := h.WithEdits(add, drop)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(g) {
		t.Fatal("undoing the edits did not restore the graph")
	}
	if same, err := g.WithEdits(nil, nil); err != nil || same != g {
		t.Fatal("WithEdits without edits did not return its receiver")
	}
}

// TestCSREdgeless covers isolated nodes: empty rows and empty targets.
func TestCSREdgeless(t *testing.T) {
	g := isolated(3)
	if len(g.off) != 4 || len(g.tgt) != 0 {
		t.Fatalf("edgeless CSR: off=%v tgt=%v", g.off, g.tgt)
	}
	for _, o := range g.off {
		if o != 0 {
			t.Fatalf("edgeless offsets must be zero: %v", g.off)
		}
	}
	if g.Degree(1) != 0 {
		t.Fatalf("Degree(1) = %d on edgeless graph", g.Degree(1))
	}
}
