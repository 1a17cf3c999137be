package graph

import (
	"fmt"
	"math/rand"
	"testing"
)

// Eccentricity returns the eccentricity of u: the maximum distance from u to
// any other node. It returns -1 when the graph is disconnected.
func (g *Graph) Eccentricity(u int) int {
	ecc := 0
	for _, d := range g.BFS(u) {
		if d < 0 {
			return -1
		}
		ecc = max(ecc, d)
	}
	return ecc
}

// allPairsDiameter is the definition Diameter must match: the largest
// eccentricity, from one BFS per node, or -1 when the graph is disconnected.
func allPairsDiameter(g *Graph) int {
	diam := 0
	for u := 0; u < g.N(); u++ {
		ecc := g.Eccentricity(u)
		if ecc < 0 {
			return -1
		}
		diam = max(diam, ecc)
	}
	return diam
}

// TestDiameterMatchesAllPairs checks iFUB against all-pairs BFS on every
// generator, over several sizes and, for the random ones, several seeds,
// and that DiameterBounds brackets it. The sizes cover odd and even rings
// and tori, which the two-centre bound treats differently.
func TestDiameterMatchesAllPairs(t *testing.T) {
	type namedGraph struct {
		name string
		g    *Graph
	}
	var graphs []namedGraph
	add := func(g *Graph, format string, args ...any) {
		graphs = append(graphs, namedGraph{fmt.Sprintf(format, args...), g})
	}
	for _, n := range []int{1, 2, 3, 4, 7, 10, 17, 32} {
		add(Ring(max(n, 3)), "ring(%d)", max(n, 3))
		add(Path(n), "path(%d)", n)
		add(Star(max(n, 2)), "star(%d)", max(n, 2))
		add(Complete(n), "complete(%d)", n)
		add(BinaryTree(n), "binarytree(%d)", n)
		add(Caterpillar(n, n%4), "caterpillar(%d,%d)", n, n%4)
		add(Lollipop(max(n/2, 3), max(n/2, 1)), "lollipop(%d,%d)", max(n/2, 3), max(n/2, 1))
	}
	for _, dims := range [][2]int{{1, 1}, {1, 5}, {3, 4}, {5, 5}, {6, 9}} {
		add(Grid(dims[0], dims[1]), "grid(%dx%d)", dims[0], dims[1])
	}
	for _, dims := range [][2]int{{3, 3}, {3, 4}, {4, 4}, {5, 7}, {6, 6}, {7, 7}, {8, 5}} {
		add(Torus(dims[0], dims[1]), "torus(%dx%d)", dims[0], dims[1])
	}
	for d := 1; d <= 6; d++ {
		add(Hypercube(d), "hypercube(%d)", d)
	}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for _, n := range []int{2, 5, 8, 12, 30, 64} {
			add(RandomTree(n, rng), "randomtree(%d)/seed%d", n, seed)
			add(RandomConnected(n, 0.1, rng), "random(%d,0.1)/seed%d", n, seed)
			add(RandomConnected(n, 0.4, rng), "random(%d,0.4)/seed%d", n, seed)
			if n >= 4 {
				add(RandomRegularish(n, 2, rng), "randomregular(%d,2)/seed%d", n, seed)
				add(RandomRegularish(n, 3, rng), "randomregular(%d,3)/seed%d", n, seed)
			}
		}
	}
	for _, ng := range graphs {
		want := allPairsDiameter(ng.g)
		if got := ng.g.Diameter(); got != want {
			t.Errorf("%s: Diameter = %d, all-pairs %d", ng.name, got, want)
		}
		if lo, hi := ng.g.DiameterBounds(); lo > want || hi < want {
			t.Errorf("%s: DiameterBounds = [%d, %d], all-pairs %d", ng.name, lo, hi, want)
		}
	}

	b := NewBuilder(6, 4)
	b.Add(0, 1)
	b.Add(1, 2)
	b.Add(3, 4)
	b.Add(4, 5)
	if got := b.MustGraph().Diameter(); got != -1 {
		t.Errorf("two paths: Diameter = %d, want -1", got)
	}
	if lo, hi := b.MustGraph().DiameterBounds(); lo != -1 || hi != -1 {
		t.Errorf("two paths: DiameterBounds = [%d, %d], want [-1, -1]", lo, hi)
	}
}
