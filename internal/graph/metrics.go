package graph

import "fmt"

// This file contains structural metrics used by the complexity experiments:
// BFS distances, diameter D, number of edges m, maximum degree Δ, the
// cyclomatic number (used to parameterise the Boulinier-Petit-Villain unison
// baseline), and an estimate of the longest chordless cycle length T_G.

// BFS returns the vector of hop distances from src to every node.
// Unreachable nodes get distance -1. It panics when src is out of range.
func (g *Graph) BFS(src int) []int {
	if src < 0 || src >= g.n {
		panic(fmt.Sprintf("graph: BFS source %d out of range [0,%d)", src, g.n))
	}
	dist := make([]int, g.n)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, w := range g.row(u) {
			v := int(w)
			if dist[v] < 0 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// Diameter returns D, the maximum distance between any pair of nodes.
// It returns -1 when the graph is disconnected and 0 for a single node.
//
// It runs iFUB (Crescenzi, Grossi, Habib, Lanzi and Marino, "On computing
// the diameter of real-world undirected graphs", TCS 2013), which is exact
// and usually needs a handful of BFS runs instead of one per node. The start
// node u is the midpoint of a double sweep, whose length is a first lower
// bound. iFUB then computes the eccentricities of the nodes farthest from u,
// level by level, until the pairs left inside the remaining levels cannot
// beat the lower bound. Two bounds decide that: iFUB's own, 2·(level−1),
// and a two-centre bound, min(d(x,u)+d(u,y), d(x,w)+d(w,y)) for a node w
// farthest from u, which closes antipodal graphs (even rings and tori,
// hypercubes) where iFUB alone would visit half of the nodes. Every BFS
// shares one set of buffers.
func (g *Graph) Diameter() int {
	if g.n <= 1 {
		return 0
	}
	dist := make([]int32, g.n)
	queue := make([]int32, 0, g.n)
	lb, u := g.doubleSweep(dist, queue)
	if lb < 0 {
		return -1
	}

	// BFS from u: order lists the nodes by level, levelEnd[i] is the end of
	// level i in order.
	distU := make([]int32, g.n)
	order := g.bfsInto(u, distU, make([]int32, 0, g.n))
	eccU := int(distU[order[len(order)-1]])
	lb = max(lb, eccU)
	levelEnd := make([]int, eccU+1)
	for i, x := range order {
		levelEnd[distU[x]] = i + 1
	}

	// far[s] is the largest distance from w, a node farthest from u, over
	// the nodes of level s.
	w := int(order[len(order)-1])
	queue = g.bfsInto(w, dist, queue)
	far := make([]int, eccU+1)
	for x, d := range dist {
		far[distU[x]] = max(far[distU[x]], int(d))
	}
	suffix := make([]int, eccU+1)

	for i, ub := eccU, 2*eccU; ub > lb; i-- {
		// The nodes of the levels above i are done: every pair left lies
		// within levels 0..i.
		if !pairBoundExceeds(far, suffix, i, lb) {
			return lb
		}
		bi := 0
		for _, x := range order[levelEnd[i-1]:levelEnd[i]] {
			queue = g.bfsInto(int(x), dist, queue)
			bi = max(bi, int(dist[queue[len(queue)-1]]))
		}
		if max(lb, bi) > 2*(i-1) {
			return max(lb, bi)
		}
		lb, ub = max(lb, bi), 2*(i-1)
	}
	return lb
}

// DiameterBounds returns the bounds lo ≤ D ≤ hi that Diameter starts from,
// at the cost of three BFS runs: lo is the larger of the double sweep's
// d(a,b) and the eccentricity e of its midpoint u, and hi is 2e. It returns
// (-1, -1) when the graph is disconnected and (0, 0) for a single node.
// Callers that cannot afford Diameter's worst case on a large graph report
// these instead.
func (g *Graph) DiameterBounds() (lo, hi int) {
	if g.n <= 1 {
		return 0, 0
	}
	dist := make([]int32, g.n)
	queue := make([]int32, 0, g.n)
	lb, u := g.doubleSweep(dist, queue)
	if lb < 0 {
		return -1, -1
	}
	queue = g.bfsInto(u, dist, queue)
	eccU := int(dist[queue[len(queue)-1]])
	return max(lb, eccU), 2 * eccU
}

// doubleSweep runs the double sweep: a is farthest from node 0, and the
// path from a to a node b farthest from a gives the lower bound d(a,b) on
// D. It returns that bound and the path's midpoint u, or lb = -1 when the
// graph is disconnected. dist and queue are scratch of len and cap n.
func (g *Graph) doubleSweep(dist, queue []int32) (lb, u int) {
	queue = g.bfsInto(0, dist, queue)
	if len(queue) < g.n {
		return -1, 0
	}
	a := int(queue[len(queue)-1])
	queue = g.bfsInto(a, dist, queue)
	b := int(queue[len(queue)-1])
	lb = int(dist[b])
	u = b
	for dist[u] > int32(lb/2) {
		for _, w := range g.row(u) {
			if dist[w] == dist[u]-1 {
				u = int(w)
				break
			}
		}
	}
	return lb, u
}

// bfsInto runs a BFS from src, writing hop distances into dist (-1 for
// unreachable nodes) and the visit order into queue, which it returns. The
// order is sorted by distance, so its last node is a farthest one.
func (g *Graph) bfsInto(src int, dist []int32, queue []int32) []int32 {
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue = append(queue[:0], int32(src))
	for head := 0; head < len(queue); head++ {
		x := queue[head]
		next := dist[x] + 1
		for _, y := range g.row(int(x)) {
			if dist[y] < 0 {
				dist[y] = next
				queue = append(queue, y)
			}
		}
	}
	return queue
}

// pairBoundExceeds reports whether the two-centre bound allows two nodes of
// levels 0..top to be more than lb apart: whether some levels s, t ≤ top
// have s+t > lb and far[s]+far[t] > lb. suffix is scratch of len ≥ top+1.
func pairBoundExceeds(far, suffix []int, top, lb int) bool {
	suffix[top] = far[top]
	for s := top - 1; s >= 0; s-- {
		suffix[s] = max(far[s], suffix[s+1])
	}
	for s := 0; s <= top; s++ {
		if t := max(lb+1-s, 0); t <= top && far[s]+suffix[t] > lb {
			return true
		}
	}
	return false
}

// LongestChordlessCycle returns T_G, the length of the longest chordless
// (induced) cycle, or 0 when the graph is acyclic. The Boulinier-Petit-Villain
// unison baseline requires a parameter α ≥ T_G - 2, so T_G is needed to run
// the baseline with its smallest legal parameters.
//
// The computation enumerates induced cycles by depth-first search from each
// start node; it is exponential in the worst case but the simulated networks
// are small (tens of nodes). maxLen caps the search; pass 0 for no cap.
func (g *Graph) LongestChordlessCycle(maxLen int) int {
	if maxLen <= 0 || maxLen > g.n {
		maxLen = g.n
	}
	best := 0
	inPath := make([]bool, g.n)
	path := make([]int, 0, maxLen)

	var dfs func(start, cur int)
	dfs = func(start, cur int) {
		if len(path) > maxLen {
			return
		}
		for _, w := range g.row(cur) {
			next := int(w)
			if next == start && len(path) >= 3 {
				// Candidate cycle: verify chordlessness (the path is induced
				// by construction except possibly for chords to the start).
				if isChordlessCycle(g, path) && len(path) > best {
					best = len(path)
				}
				continue
			}
			// Only extend to larger-indexed nodes than start to avoid
			// enumerating every rotation of the same cycle.
			if next <= start || inPath[next] {
				continue
			}
			// Induced-path check: next may only be adjacent to cur among the
			// current path nodes (and possibly to start, forming the cycle
			// closure which is checked above).
			ok := true
			for _, p := range path {
				if p != cur && p != start && g.HasEdge(next, p) {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			inPath[next] = true
			path = append(path, next)
			dfs(start, next)
			path = path[:len(path)-1]
			inPath[next] = false
		}
	}

	for s := 0; s < g.n; s++ {
		inPath[s] = true
		path = append(path[:0], s)
		dfs(s, s)
		inPath[s] = false
	}
	return best
}

func isChordlessCycle(g *Graph, cycle []int) bool {
	k := len(cycle)
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			adjacentOnCycle := j == i+1 || (i == 0 && j == k-1)
			if !adjacentOnCycle && g.HasEdge(cycle[i], cycle[j]) {
				return false
			}
		}
	}
	return true
}
