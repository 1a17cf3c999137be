package scenario

import (
	"fmt"
	"math/rand"

	"sdr/internal/graph"
)

// TopologyEntry is one named topology family of the registry. Build returns
// a connected graph with approximately n nodes; families with structural
// constraints round n as documented by Description.
type TopologyEntry struct {
	// Name is the registry key.
	Name string
	// Description is a one-line summary of the family and its parameter
	// conventions (rounding, Params fields consumed) for -list output.
	Description string
	// Build generates the graph. Random families consume rng; deterministic
	// families ignore it.
	Build func(n int, p Params, rng *rand.Rand) *graph.Graph
}

var topologyRegistry = newRegistry[TopologyEntry]("topology")

// RegisterTopology adds an entry to the topology registry. It panics on
// duplicate names; call it from init functions or test setup only.
func RegisterTopology(e TopologyEntry) { topologyRegistry.add(e.Name, e) }

// Topologies returns the registered topology names in registration order.
func Topologies() []string { return topologyRegistry.list() }

// TopologyByName returns the entry with the given name.
func TopologyByName(name string) (TopologyEntry, error) { return topologyRegistry.lookup(name) }

// nearSquareGrid builds the largest r×c grid with r·c ≤ n and r, c ≥ 2 as
// close to square as possible (falls back to a path for n < 4). This is the
// convention the experiment tables have always used.
func nearSquareGrid(n int) *graph.Graph {
	if n < 4 {
		return graph.Path(n)
	}
	rows := 2
	for r := 2; r*r <= n; r++ {
		rows = r
	}
	return graph.Grid(rows, n/rows)
}

// edgeProbOr returns Params.EdgeProb or the family default.
func edgeProbOr(p Params, def float64) float64 {
	if p.EdgeProb > 0 {
		return p.EdgeProb
	}
	return def
}

func init() {
	RegisterTopology(TopologyEntry{
		Name:        "ring",
		Description: "cycle C_n (exact n, n ≥ 3); worst case for wave algorithms",
		Build:       func(n int, _ Params, _ *rand.Rand) *graph.Graph { return graph.Ring(n) },
	})
	RegisterTopology(TopologyEntry{
		Name:        "path",
		Description: "path P_n (exact n)",
		Build:       func(n int, _ Params, _ *rand.Rand) *graph.Graph { return graph.Path(n) },
	})
	RegisterTopology(TopologyEntry{
		Name:        "star",
		Description: "star K_{1,n-1} with node 0 at the centre (exact n); low diameter, high degree",
		Build:       func(n int, _ Params, _ *rand.Rand) *graph.Graph { return graph.Star(n) },
	})
	RegisterTopology(TopologyEntry{
		Name:        "complete",
		Description: "complete graph K_n (exact n)",
		Build:       func(n int, _ Params, _ *rand.Rand) *graph.Graph { return graph.Complete(n) },
	})
	RegisterTopology(TopologyEntry{
		Name:        "binary-tree",
		Description: "complete-ish binary tree rooted at 0 (exact n)",
		Build:       func(n int, _ Params, _ *rand.Rand) *graph.Graph { return graph.BinaryTree(n) },
	})
	RegisterTopology(TopologyEntry{
		Name:        "tree",
		Description: "uniformly random labelled tree (exact n)",
		Build:       func(n int, _ Params, rng *rand.Rand) *graph.Graph { return graph.RandomTree(n, rng) },
	})
	RegisterTopology(TopologyEntry{
		Name:        "grid",
		Description: "largest near-square r×c grid with r·c ≤ n (rounds n down; path for n < 4)",
		Build:       func(n int, _ Params, _ *rand.Rand) *graph.Graph { return nearSquareGrid(n) },
	})
	RegisterTopology(TopologyEntry{
		Name:        "torus",
		Description: "smallest s×s torus with s² ≥ n, s ≥ 3 (rounds n up)",
		Build: func(n int, _ Params, _ *rand.Rand) *graph.Graph {
			side := 3
			for side*side < n {
				side++
			}
			return graph.Torus(side, side)
		},
	})
	RegisterTopology(TopologyEntry{
		Name:        "hypercube",
		Description: "smallest hypercube Q_d with 2^d ≥ n (rounds n up to a power of two)",
		Build: func(n int, _ Params, _ *rand.Rand) *graph.Graph {
			d := 1
			for (1 << uint(d)) < n {
				d++
			}
			return graph.Hypercube(d)
		},
	})
	RegisterTopology(TopologyEntry{
		Name:        "caterpillar",
		Description: "caterpillar tree: spine of ⌈n/(legs+1)⌉ nodes with Params.Legs pendant nodes each (default 1 leg)",
		Build: func(n int, p Params, _ *rand.Rand) *graph.Graph {
			// Every spine node carries all its legs, so the graph has at
			// least legs+1 nodes whatever n asks for: an explicit legs ≥ n
			// would let a small request build an arbitrarily large graph.
			if p.Legs > 0 && p.Legs >= n {
				panic(fmt.Sprintf("caterpillar: Params.Legs = %d must be below n = %d", p.Legs, n))
			}
			legs := p.Legs
			if legs <= 0 {
				legs = 1
			}
			spine := (n + legs) / (legs + 1)
			if spine < 1 {
				spine = 1
			}
			return graph.Caterpillar(spine, legs)
		},
	})
	RegisterTopology(TopologyEntry{
		Name:        "lollipop",
		Description: "lollipop: clique of ⌈n/2⌉ (≥ 3) joined to a path of the remaining nodes; stresses the daemon",
		Build: func(n int, _ Params, _ *rand.Rand) *graph.Graph {
			clique := (n + 1) / 2
			if clique < 3 {
				clique = 3
			}
			path := n - clique
			if path < 1 {
				path = 1
			}
			return graph.Lollipop(clique, path)
		},
	})
	RegisterTopology(TopologyEntry{
		Name:        "random",
		Description: "random connected graph: random tree plus each extra edge with probability Params.EdgeProb (default 0.25)",
		Build: func(n int, p Params, rng *rand.Rand) *graph.Graph {
			return graph.RandomConnected(n, edgeProbOr(p, 0.25), rng)
		},
	})
	RegisterTopology(TopologyEntry{
		Name:        "random-dense",
		Description: "random connected graph with edge probability 0.5; degree grows with n",
		Build: func(n int, _ Params, rng *rand.Rand) *graph.Graph {
			return graph.RandomConnected(n, 0.5, rng)
		},
	})
	RegisterTopology(TopologyEntry{
		Name:        "random-sparse",
		Description: "random connected graph with edge probability 0.2",
		Build: func(n int, _ Params, rng *rand.Rand) *graph.Graph {
			return graph.RandomConnected(n, 0.2, rng)
		},
	})
	RegisterTopology(TopologyEntry{
		Name:        "random-regular",
		Description: "random connected graph with minimum degree Params.MinDegree (default 3) when feasible",
		Build: func(n int, p Params, rng *rand.Rand) *graph.Graph {
			minDeg := p.MinDegree
			if minDeg <= 0 {
				minDeg = 3
			}
			return graph.RandomRegularish(n, minDeg, rng)
		},
	})
}
