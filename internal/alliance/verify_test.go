package alliance

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"sdr/internal/graph"
)

func TestIsAllianceDominatingSet(t *testing.T) {
	// Path 0-1-2-3-4: {1,3} dominates every node.
	g := graph.Path(5)
	spec := DominatingSet()
	if !IsAlliance(g, spec, []int{1, 3}) {
		t.Error("{1,3} dominates a 5-path")
	}
	if IsAlliance(g, spec, []int{1}) {
		t.Error("{1} leaves nodes 3 and 4 undominated")
	}
	if !IsAlliance(g, spec, AllNodes(g)) {
		t.Error("the full node set is always a (1,0)-alliance")
	}
	if err := ExplainAlliance(g, spec, []int{0}); err == nil {
		t.Error("ExplainAlliance must report the violation")
	}
}

func TestIsAllianceInnerRequirement(t *testing.T) {
	// With g=1 a singleton member with no member neighbour violates the
	// inner requirement even if outsiders are fine.
	g := graph.Complete(4)
	spec := Constant("test", 1, 1)
	if IsAlliance(g, spec, []int{0}) {
		t.Error("a lone member with g=1 needs a member neighbour")
	}
	if !IsAlliance(g, spec, []int{0, 1}) {
		t.Error("{0,1} in K4 satisfies f=1 and g=1")
	}
}

func TestIs1Minimal(t *testing.T) {
	g := graph.Path(5)
	spec := DominatingSet()
	if !Is1Minimal(g, spec, []int{1, 3}) {
		t.Error("{1,3} is a 1-minimal dominating set of a 5-path")
	}
	if Is1Minimal(g, spec, []int{0, 1, 3}) {
		t.Error("{0,1,3} is not 1-minimal: node 0 is redundant")
	}
	if Is1Minimal(g, spec, []int{1}) {
		t.Error("a non-alliance is never 1-minimal")
	}
	if err := Explain1Minimal(g, spec, []int{0, 1, 3}); err == nil {
		t.Error("Explain1Minimal must report the redundant member")
	}
}

func TestIsMinimalAndProperty1(t *testing.T) {
	g := graph.Ring(6)
	spec := DominatingSet()
	minimal := []int{0, 3}
	if !IsMinimal(g, spec, minimal) {
		t.Error("{0,3} is a minimal dominating set of a 6-ring")
	}
	// Property 1.1: every minimal alliance is 1-minimal.
	if !Is1Minimal(g, spec, minimal) {
		t.Error("a minimal alliance must be 1-minimal (Property 1.1)")
	}
	if IsMinimal(g, spec, AllNodes(g)) {
		t.Error("the full ring is not a minimal dominating set")
	}
	if IsMinimal(g, spec, []int{0}) {
		t.Error("a non-alliance is not minimal")
	}
}

func TestIsMinimalRefusesLargeSets(t *testing.T) {
	g := graph.Complete(25)
	defer func() {
		if recover() == nil {
			t.Error("IsMinimal must refuse alliances of more than 20 members")
		}
	}()
	IsMinimal(g, DominatingSet(), AllNodes(g))
}

func TestGreedyMinimize(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, g := range []*graph.Graph{graph.Ring(8), graph.Complete(6), graph.RandomConnected(10, 0.4, rng)} {
		for _, spec := range []Spec{DominatingSet(), GlobalOffensiveAlliance()} {
			if spec.Validate(g) != nil {
				continue
			}
			reduced := GreedyMinimize(g, spec, AllNodes(g))
			if err := Explain1Minimal(g, spec, reduced); err != nil {
				t.Errorf("%s: greedy result %v is not 1-minimal: %v", spec.Name, reduced, err)
			}
		}
	}
}

func TestQuickFullSetIsAllianceWhenSolvable(t *testing.T) {
	// Property: on any random connected graph, for any constant spec
	// satisfying the solvability assumption, the full node set is an
	// (f,g)-alliance and GreedyMinimize yields a 1-minimal one.
	property := func(seed int64, rawN uint8, rawF, rawG uint8) bool {
		n := int(rawN%8) + 3
		rng := rand.New(rand.NewSource(seed))
		g := graph.RandomConnected(n, 0.5, rng)
		minDeg := g.MinDegree()
		if minDeg == 0 {
			return true
		}
		f := int(rawF) % (minDeg + 1)
		gg := int(rawG) % (minDeg + 1)
		spec := Constant("prop", f, gg)
		if spec.Validate(g) != nil {
			return true
		}
		if !IsAlliance(g, spec, AllNodes(g)) {
			return false
		}
		return Is1Minimal(g, spec, GreedyMinimize(g, spec, AllNodes(g)))
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestQuickProperty1MinimalImplies1Minimal(t *testing.T) {
	// Property 1.1 of the paper, checked by brute force on small random
	// graphs: every minimal (f,g)-alliance is 1-minimal.
	property := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := graph.RandomConnected(6, 0.5, rng)
		spec := DominatingSet()
		reduced := GreedyMinimize(g, spec, AllNodes(g))
		if !IsMinimal(g, spec, reduced) {
			// GreedyMinimize yields a 1-minimal alliance, which for f ≥ g is
			// also minimal (Property 1.2) — but the property under test here
			// only needs implication in the other direction, so skip.
			return true
		}
		return Is1Minimal(g, spec, reduced)
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestQuickProperty1Part2(t *testing.T) {
	// Property 1.2: when f(u) ≥ g(u) everywhere, every 1-minimal alliance is
	// minimal. Checked on small graphs with the (1,0) and (2,1) instances.
	property := func(seed int64, tuple bool) bool {
		rng := rand.New(rand.NewSource(seed))
		g := graph.RandomConnected(6, 0.6, rng)
		spec := DominatingSet()
		if tuple {
			spec = KTupleDomination(2)
		}
		if spec.Validate(g) != nil {
			return true
		}
		reduced := GreedyMinimize(g, spec, AllNodes(g))
		if !Is1Minimal(g, spec, reduced) {
			return false
		}
		return IsMinimal(g, spec, reduced)
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// IsMinimal reports whether members is a minimal (f,g)-alliance: no proper
// subset of it is an alliance. The check enumerates all proper subsets and is
// therefore only usable for small alliances (it is exponential in their
// size); the tests use it on small graphs to exercise Property 1 of the paper.
func IsMinimal(g *graph.Graph, spec Spec, members []int) bool {
	if !IsAlliance(g, spec, members) {
		return false
	}
	n := len(members)
	if n > 20 {
		panic(fmt.Sprintf("alliance: IsMinimal is exponential; refusing alliance of size %d", n))
	}
	for mask := 0; mask < (1 << uint(n)); mask++ {
		if mask == (1<<uint(n))-1 {
			continue // the full set is not a proper subset
		}
		var subset []int
		for i := 0; i < n; i++ {
			if mask&(1<<uint(i)) != 0 {
				subset = append(subset, members[i])
			}
		}
		if IsAlliance(g, spec, subset) {
			return false
		}
	}
	return true
}

// AllNodes returns the trivial alliance containing every node. Under the
// solvability assumption δ_u ≥ max(f(u), g(u)) it is always an
// (f,g)-alliance; it is the starting point FGA reduces from.
func AllNodes(g *graph.Graph) []int {
	members := make([]int, g.N())
	for u := range members {
		members[u] = u
	}
	return members
}

// GreedyMinimize reduces members to a 1-minimal alliance by repeatedly
// removing, in increasing node order, any member whose removal keeps the
// alliance property. It is the sequential comparator the tests use to
// cross-check that 1-minimal alliances exist and to compare sizes against
// FGA's distributed output.
func GreedyMinimize(g *graph.Graph, spec Spec, members []int) []int {
	current := append([]int(nil), members...)
	for {
		removed := false
		for i := 0; i < len(current); i++ {
			candidate := make([]int, 0, len(current)-1)
			candidate = append(candidate, current[:i]...)
			candidate = append(candidate, current[i+1:]...)
			if IsAlliance(g, spec, candidate) {
				current = candidate
				removed = true
				break
			}
		}
		if !removed {
			return current
		}
	}
}
