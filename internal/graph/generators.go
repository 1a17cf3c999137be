package graph

import (
	"fmt"
	"math/rand"
)

// The generators in this file build the topology families used by the
// experiments: rings and paths (worst cases for wave algorithms), trees,
// grids and tori (bounded-degree topologies), stars (low diameter / high
// degree), hypercubes, random connected graphs, and a few pathological
// shapes (caterpillar, lollipop) used to stress the daemon.
//
// Every family compiles its edge set through a Builder straight into CSR
// form. The random families that probe the partial graph while drawing
// (RandomConnected, RandomRegularish) keep that bookkeeping local to the
// generator and build once at the end, consuming exactly the rng draws an
// incremental construction would; the seeded outputs are pinned by
// TestRandomGeneratorsPinned.

// Ring returns a cycle C_n. It panics for n < 3.
func Ring(n int) *Graph {
	if n < 3 {
		panic(fmt.Sprintf("graph: ring requires n >= 3, got %d", n))
	}
	b := NewBuilder(n, n)
	for u := 0; u < n; u++ {
		b.Add(u, (u+1)%n)
	}
	return b.MustGraph()
}

// Path returns a path P_n. It panics for n < 1.
func Path(n int) *Graph {
	if n < 1 {
		panic(fmt.Sprintf("graph: path requires n >= 1, got %d", n))
	}
	b := NewBuilder(n, n-1)
	for u := 0; u+1 < n; u++ {
		b.Add(u, u+1)
	}
	return b.MustGraph()
}

// Star returns a star K_{1,n-1} with node 0 at the centre. It panics for n < 2.
func Star(n int) *Graph {
	if n < 2 {
		panic(fmt.Sprintf("graph: star requires n >= 2, got %d", n))
	}
	b := NewBuilder(n, n-1)
	for u := 1; u < n; u++ {
		b.Add(0, u)
	}
	return b.MustGraph()
}

// Complete returns the complete graph K_n. It panics for n < 1.
func Complete(n int) *Graph {
	if n < 1 {
		panic(fmt.Sprintf("graph: complete graph requires n >= 1, got %d", n))
	}
	b := NewBuilder(n, n*(n-1)/2)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			b.Add(u, v)
		}
	}
	return b.MustGraph()
}

// BinaryTree returns a complete-ish binary tree with n nodes rooted at 0.
// It panics for n < 1.
func BinaryTree(n int) *Graph {
	if n < 1 {
		panic(fmt.Sprintf("graph: binary tree requires n >= 1, got %d", n))
	}
	b := NewBuilder(n, n-1)
	for u := 1; u < n; u++ {
		b.Add(u, (u-1)/2)
	}
	return b.MustGraph()
}

// Grid returns an rows x cols grid graph. It panics when rows or cols < 1.
func Grid(rows, cols int) *Graph {
	if rows < 1 || cols < 1 {
		panic(fmt.Sprintf("graph: grid requires positive dimensions, got %dx%d", rows, cols))
	}
	b := NewBuilder(rows*cols, 2*rows*cols)
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				b.Add(id(r, c), id(r, c+1))
			}
			if r+1 < rows {
				b.Add(id(r, c), id(r+1, c))
			}
		}
	}
	return b.MustGraph()
}

// Torus returns an rows x cols torus (grid with wrap-around edges).
// It panics when rows or cols < 3 (smaller sizes create multi-edges).
func Torus(rows, cols int) *Graph {
	if rows < 3 || cols < 3 {
		panic(fmt.Sprintf("graph: torus requires dimensions >= 3, got %dx%d", rows, cols))
	}
	b := NewBuilder(rows*cols, 2*rows*cols)
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			b.Add(id(r, c), id(r, (c+1)%cols))
			b.Add(id(r, c), id((r+1)%rows, c))
		}
	}
	return b.MustGraph()
}

// Hypercube returns the d-dimensional hypercube Q_d with 2^d nodes.
// It panics for d < 1 or d > 20.
func Hypercube(d int) *Graph {
	if d < 1 || d > 20 {
		panic(fmt.Sprintf("graph: hypercube dimension must be in [1,20], got %d", d))
	}
	n := 1 << uint(d)
	b := NewBuilder(n, n*d/2)
	for u := 0; u < n; u++ {
		for bit := 0; bit < d; bit++ {
			v := u ^ (1 << uint(bit))
			if u < v {
				b.Add(u, v)
			}
		}
	}
	return b.MustGraph()
}

// Caterpillar returns a caterpillar tree: a spine path of length spine with
// legs pendant nodes attached to every spine node. Total nodes: spine*(legs+1).
// It panics when spine < 1 or legs < 0.
func Caterpillar(spine, legs int) *Graph {
	if spine < 1 || legs < 0 {
		panic(fmt.Sprintf("graph: caterpillar requires spine >= 1 and legs >= 0, got %d, %d", spine, legs))
	}
	n := spine * (legs + 1)
	b := NewBuilder(n, n-1)
	for s := 0; s+1 < spine; s++ {
		b.Add(s, s+1)
	}
	next := spine
	for s := 0; s < spine; s++ {
		for l := 0; l < legs; l++ {
			b.Add(s, next)
			next++
		}
	}
	return b.MustGraph()
}

// Lollipop returns a lollipop graph: a clique of size cliqueSize joined to a
// path of length pathLen by a single edge. It panics when cliqueSize < 3 or
// pathLen < 1.
func Lollipop(cliqueSize, pathLen int) *Graph {
	if cliqueSize < 3 || pathLen < 1 {
		panic(fmt.Sprintf("graph: lollipop requires clique >= 3 and path >= 1, got %d, %d", cliqueSize, pathLen))
	}
	b := NewBuilder(cliqueSize+pathLen, cliqueSize*(cliqueSize-1)/2+pathLen)
	for u := 0; u < cliqueSize; u++ {
		for v := u + 1; v < cliqueSize; v++ {
			b.Add(u, v)
		}
	}
	b.Add(cliqueSize-1, cliqueSize)
	for u := cliqueSize; u+1 < cliqueSize+pathLen; u++ {
		b.Add(u, u+1)
	}
	return b.MustGraph()
}

// RandomTree returns a uniformly random labelled tree on n nodes built from a
// random Prüfer-like attachment: node i attaches to a uniformly random node
// in [0, i). It panics for n < 1.
func RandomTree(n int, rng *rand.Rand) *Graph {
	if n < 1 {
		panic(fmt.Sprintf("graph: random tree requires n >= 1, got %d", n))
	}
	b := NewBuilder(n, n-1)
	for u := 1; u < n; u++ {
		b.Add(u, rng.Intn(u))
	}
	return b.MustGraph()
}

// RandomConnected returns a random connected graph on n nodes: a random tree
// plus each remaining pair added independently with probability p.
// It panics when n < 1 or p is outside [0, 1].
func RandomConnected(n int, p float64, rng *rand.Rand) *Graph {
	if n < 1 {
		panic(fmt.Sprintf("graph: random connected graph requires n >= 1, got %d", n))
	}
	if p < 0 || p > 1 {
		panic(fmt.Sprintf("graph: edge probability must be in [0,1], got %v", p))
	}
	tree := RandomTree(n, rng)
	b := NewBuilder(n, tree.M())
	for _, e := range tree.Edges() {
		b.Add(e[0], e[1])
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if !tree.HasEdge(u, v) && rng.Float64() < p {
				b.Add(u, v)
			}
		}
	}
	return b.MustGraph()
}

// RandomRegularish returns a random connected graph where every node has
// degree at least minDegree (when feasible). It starts from a random tree and
// adds random edges until the minimum degree constraint is met or the graph
// becomes complete. It panics when n < 1 or minDegree < 1.
func RandomRegularish(n, minDegree int, rng *rand.Rand) *Graph {
	if n < 1 || minDegree < 1 {
		panic(fmt.Sprintf("graph: invalid parameters n=%d minDegree=%d", n, minDegree))
	}
	tree := RandomTree(n, rng)
	if minDegree >= n {
		minDegree = n - 1
	}
	// edges and deg track the growing graph; below counts the nodes under
	// the degree floor, so the loop condition is MinDegree() < minDegree
	// without an O(n) scan per attempt.
	edges := make(map[[2]int]bool, n*minDegree)
	deg := make([]int, n)
	for _, e := range tree.Edges() {
		edges[e] = true
		deg[e[0]]++
		deg[e[1]]++
	}
	below := 0
	for _, d := range deg {
		if d < minDegree {
			below++
		}
	}
	maxEdges := n * (n - 1) / 2
	for below > 0 && len(edges) < maxEdges {
		u := rng.Intn(n)
		if deg[u] >= minDegree {
			continue
		}
		v := rng.Intn(n)
		e := [2]int{min(u, v), max(u, v)}
		if u == v || edges[e] {
			continue
		}
		edges[e] = true
		for _, w := range e {
			if deg[w]++; deg[w] == minDegree {
				below--
			}
		}
	}
	b := NewBuilder(n, len(edges))
	for e := range edges {
		b.Add(e[0], e[1])
	}
	return b.MustGraph()
}
