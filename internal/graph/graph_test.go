package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// isolated returns a graph of n nodes and no edges.
func isolated(n int) *Graph { return NewBuilder(n, 0).MustGraph() }

func TestNewEmpty(t *testing.T) {
	g := isolated(5)
	if g.N() != 5 {
		t.Errorf("N() = %d, want 5", g.N())
	}
	if g.M() != 0 {
		t.Errorf("M() = %d, want 0", g.M())
	}
	if g.Connected() {
		t.Errorf("5 isolated nodes reported connected")
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("isolated(-1) did not panic")
		}
	}()
	isolated(-1)
}

// mustEdit is WithEdits for edits known to be valid.
func mustEdit(t *testing.T, g *Graph, drop, add [][2]int) *Graph {
	t.Helper()
	h, err := g.WithEdits(drop, add)
	if err != nil {
		t.Fatalf("WithEdits(%v, %v): %v", drop, add, err)
	}
	return h
}

func TestAddEdge(t *testing.T) {
	base := isolated(3)
	g := mustEdit(t, base, nil, [][2]int{{0, 1}})
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Error("edge {0,1} not symmetric")
	}
	if g.M() != 1 {
		t.Errorf("M() = %d, want 1", g.M())
	}
	if g.Degree(0) != 1 || g.Degree(1) != 1 || g.Degree(2) != 0 {
		t.Errorf("unexpected degrees %d %d %d", g.Degree(0), g.Degree(1), g.Degree(2))
	}
	if base.M() != 0 || base.HasEdge(0, 1) {
		t.Error("WithEdits modified its receiver")
	}
}

func TestAddEdgeErrors(t *testing.T) {
	g := Path(3)
	cases := []struct {
		name string
		u, v int
	}{
		{"self-loop", 1, 1},
		{"out of range low", -1, 0},
		{"out of range high", 0, 3},
		{"duplicate", 1, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := g.WithEdits(nil, [][2]int{{tc.u, tc.v}}); err == nil {
				t.Errorf("adding {%d,%d} succeeded, want error", tc.u, tc.v)
			}
			if _, err := FromEdges(3, [][2]int{{0, 1}, {1, 2}, {tc.u, tc.v}}); err == nil {
				t.Errorf("FromEdges with {%d,%d} succeeded, want error", tc.u, tc.v)
			}
		})
	}
	if _, err := g.WithEdits([][2]int{{0, 2}}, nil); err == nil {
		t.Error("dropping an absent edge succeeded")
	}
	if _, err := g.WithEdits([][2]int{{0, 1}, {1, 0}}, nil); err == nil {
		t.Error("dropping an edge twice succeeded")
	}
	if _, err := g.WithEdits(nil, [][2]int{{0, 2}, {2, 0}}); err == nil {
		t.Error("adding an edge twice succeeded")
	}
	if h := mustEdit(t, g, [][2]int{{0, 1}}, [][2]int{{1, 0}}); !h.Equal(g) {
		t.Error("dropping and re-adding an edge changed the graph")
	}
}

func TestNeighborsSorted(t *testing.T) {
	g, err := FromEdges(5, [][2]int{{2, 4}, {2, 0}, {2, 3}, {2, 1}})
	if err != nil {
		t.Fatal(err)
	}
	var ns []int
	for i := 0; i < g.Degree(2); i++ {
		ns = append(ns, g.Neighbor(2, i))
	}
	want := []int{0, 1, 3, 4}
	if len(ns) != len(want) {
		t.Fatalf("neighbours = %v, want %v", ns, want)
	}
	for i := range want {
		if ns[i] != want[i] {
			t.Fatalf("neighbours = %v, want %v", ns, want)
		}
	}
}

func TestEqual(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := RandomConnected(20, 0.2, rng)
	c, err := FromEdges(g.N(), g.Edges())
	if err != nil {
		t.Fatal(err)
	}
	if !g.Equal(c) {
		t.Fatal("rebuilt copy not equal to original")
	}
	if g.Equal(mustEdit(t, c, nil, [][2]int{firstNonEdge(c)})) {
		t.Fatal("graphs with different edge sets reported equal")
	}
}

func firstNonEdge(g *Graph) [2]int {
	for u := 0; u < g.N(); u++ {
		for v := u + 1; v < g.N(); v++ {
			if !g.HasEdge(u, v) {
				return [2]int{u, v}
			}
		}
	}
	panic("graph is complete")
}

func TestValidate(t *testing.T) {
	if err := isolated(0).Validate(); err == nil {
		t.Error("empty graph validated")
	}
	if err := isolated(3).Validate(); err == nil {
		t.Error("disconnected graph validated")
	}
	if err := Ring(5).Validate(); err != nil {
		t.Errorf("ring failed validation: %v", err)
	}
}

func TestGeneratorsBasicShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cases := []struct {
		name     string
		g        *Graph
		n, m     int
		diameter int // -1 to skip
	}{
		{"ring5", Ring(5), 5, 5, 2},
		{"ring6", Ring(6), 6, 6, 3},
		{"path4", Path(4), 4, 3, 3},
		{"path1", Path(1), 1, 0, 0},
		{"star6", Star(6), 6, 5, 2},
		{"complete4", Complete(4), 4, 6, 1},
		{"binarytree7", BinaryTree(7), 7, 6, 4},
		{"grid3x3", Grid(3, 3), 9, 12, 4},
		{"torus3x3", Torus(3, 3), 9, 18, 2},
		{"hypercube3", Hypercube(3), 8, 12, 3},
		{"caterpillar", Caterpillar(3, 2), 9, 8, 4},
		{"lollipop", Lollipop(4, 3), 7, 9, 4},
		{"randomtree", RandomTree(10, rng), 10, 9, -1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.g.N() != tc.n {
				t.Errorf("N = %d, want %d", tc.g.N(), tc.n)
			}
			if tc.g.M() != tc.m {
				t.Errorf("M = %d, want %d", tc.g.M(), tc.m)
			}
			if !tc.g.Connected() {
				t.Error("generator produced a disconnected graph")
			}
			if tc.diameter >= 0 {
				if d := tc.g.Diameter(); d != tc.diameter {
					t.Errorf("Diameter = %d, want %d", d, tc.diameter)
				}
			}
		})
	}
}

func TestGeneratorPanics(t *testing.T) {
	cases := []struct {
		name string
		fn   func()
	}{
		{"ring too small", func() { Ring(2) }},
		{"path zero", func() { Path(0) }},
		{"star one", func() { Star(1) }},
		{"complete zero", func() { Complete(0) }},
		{"grid zero", func() { Grid(0, 3) }},
		{"torus small", func() { Torus(2, 3) }},
		{"hypercube zero", func() { Hypercube(0) }},
		{"caterpillar", func() { Caterpillar(0, 1) }},
		{"lollipop", func() { Lollipop(2, 1) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			tc.fn()
		})
	}
}

func TestRandomConnectedIsConnected(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 30; i++ {
		n := 1 + rng.Intn(40)
		p := rng.Float64() * 0.3
		g := RandomConnected(n, p, rng)
		if !g.Connected() {
			t.Fatalf("RandomConnected(%d, %v) not connected", n, p)
		}
		if g.N() != n {
			t.Fatalf("node count %d, want %d", g.N(), n)
		}
	}
}

func TestRandomRegularishMinDegree(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, minDeg := range []int{1, 2, 3, 5} {
		g := RandomRegularish(12, minDeg, rng)
		if !g.Connected() {
			t.Fatalf("minDegree=%d: not connected", minDeg)
		}
		if g.MinDegree() < minDeg {
			t.Fatalf("minDegree=%d: got min degree %d", minDeg, g.MinDegree())
		}
	}
}

func TestBFSAndDistances(t *testing.T) {
	g := Path(5)
	dist := g.BFS(0)
	for i, want := range []int{0, 1, 2, 3, 4} {
		if dist[i] != want {
			t.Errorf("dist[%d] = %d, want %d", i, dist[i], want)
		}
	}
	if d := g.BFS(1)[4]; d != 3 {
		t.Errorf("BFS(1)[4] = %d, want 3", d)
	}
	disconnected := mustEdit(t, isolated(3), nil, [][2]int{{0, 1}})
	if d := disconnected.BFS(0)[2]; d != -1 {
		t.Errorf("BFS distance in disconnected graph = %d, want -1", d)
	}
	if diam := disconnected.Diameter(); diam != -1 {
		t.Errorf("Diameter of disconnected graph = %d, want -1", diam)
	}
}

func TestEccentricityRadius(t *testing.T) {
	g := Path(5)
	if ecc := g.Eccentricity(2); ecc != 2 {
		t.Errorf("Eccentricity(2) = %d, want 2", ecc)
	}
	if ecc := g.Eccentricity(0); ecc != 4 {
		t.Errorf("Eccentricity(0) = %d, want 4", ecc)
	}
}

func TestLongestChordlessCycle(t *testing.T) {
	cases := []struct {
		name string
		g    *Graph
		want int
	}{
		{"tree", BinaryTree(7), 0},
		{"ring8", Ring(8), 8},
		{"complete5", Complete(5), 3},
		{"grid3x3", Grid(3, 3), 8}, // outer boundary of the 3x3 grid is induced
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.g.LongestChordlessCycle(0); got != tc.want {
				t.Errorf("LongestChordlessCycle = %d, want %d", got, tc.want)
			}
		})
	}
}

func TestFromEdges(t *testing.T) {
	g, err := FromEdges(4, [][2]int{{0, 1}, {1, 2}, {2, 3}})
	if err != nil {
		t.Fatalf("FromEdges: %v", err)
	}
	if !g.Equal(Path(4)) {
		t.Error("FromEdges did not reproduce the path")
	}
	if _, err := FromEdges(2, [][2]int{{0, 0}}); err == nil {
		t.Error("FromEdges accepted a self-loop")
	}
}

// Property: the handshake lemma holds for every generated graph.
func TestQuickHandshakeLemma(t *testing.T) {
	f := func(seed int64, size uint8, prob uint8) bool {
		n := 1 + int(size)%50
		p := float64(prob%100) / 100
		rng := rand.New(rand.NewSource(seed))
		g := RandomConnected(n, p, rng)
		sum := 0
		for u := 0; u < g.N(); u++ {
			sum += g.Degree(u)
		}
		return sum == 2*g.M()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: BFS distances satisfy the triangle-like edge condition
// |dist(u) - dist(v)| <= 1 for every edge {u, v}.
func TestQuickBFSEdgeCondition(t *testing.T) {
	f := func(seed int64, size uint8) bool {
		n := 2 + int(size)%40
		rng := rand.New(rand.NewSource(seed))
		g := RandomConnected(n, 0.15, rng)
		dist := g.BFS(0)
		for _, e := range g.Edges() {
			d := dist[e[0]] - dist[e[1]]
			if d < -1 || d > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: diameter of a ring of n nodes is floor(n/2); of a path, n-1.
func TestQuickKnownDiameters(t *testing.T) {
	f := func(size uint8) bool {
		n := 3 + int(size)%30
		if Ring(n).Diameter() != n/2 {
			return false
		}
		return Path(n).Diameter() == n-1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
