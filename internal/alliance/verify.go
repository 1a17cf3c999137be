package alliance

import (
	"fmt"

	"sdr/internal/graph"
)

// membersIn counts the neighbours of u that belong to the set.
func membersIn(g *graph.Graph, set map[int]bool, u int) int {
	count := 0
	for i, deg := 0, g.Degree(u); i < deg; i++ {
		if set[g.Neighbor(u, i)] {
			count++
		}
	}
	return count
}

// toSet converts a member slice to a membership map.
func toSet(members []int) map[int]bool {
	set := make(map[int]bool, len(members))
	for _, u := range members {
		set[u] = true
	}
	return set
}

// IsAlliance reports whether the given member set is an (f,g)-alliance of g
// under the spec: every node outside the set has at least f(u) neighbours in
// it, and every node inside has at least g(u).
func IsAlliance(g *graph.Graph, spec Spec, members []int) bool {
	return ExplainAlliance(g, spec, members) == nil
}

// ExplainAlliance returns nil when members is an (f,g)-alliance and an error
// naming the first violating node otherwise.
func ExplainAlliance(g *graph.Graph, spec Spec, members []int) error {
	set := toSet(members)
	for u := 0; u < g.N(); u++ {
		in := membersIn(g, set, u)
		if set[u] {
			if need := spec.GOf(g, u); in < need {
				return fmt.Errorf("alliance: member %d has %d neighbours in the alliance, needs g(%d)=%d", u, in, u, need)
			}
		} else {
			if need := spec.FOf(g, u); in < need {
				return fmt.Errorf("alliance: non-member %d has %d neighbours in the alliance, needs f(%d)=%d", u, in, u, need)
			}
		}
	}
	return nil
}

// Is1Minimal reports whether members is a 1-minimal (f,g)-alliance: it is an
// alliance but removing any single member breaks the alliance property.
func Is1Minimal(g *graph.Graph, spec Spec, members []int) bool {
	return Explain1Minimal(g, spec, members) == nil
}

// Explain1Minimal returns nil when members is a 1-minimal (f,g)-alliance and
// an error describing the first violation otherwise (either not an alliance,
// or a member whose removal keeps the alliance property).
func Explain1Minimal(g *graph.Graph, spec Spec, members []int) error {
	if err := ExplainAlliance(g, spec, members); err != nil {
		return err
	}
	for i, drop := range members {
		reduced := make([]int, 0, len(members)-1)
		reduced = append(reduced, members[:i]...)
		reduced = append(reduced, members[i+1:]...)
		if IsAlliance(g, spec, reduced) {
			return fmt.Errorf("alliance: not 1-minimal: removing member %d still yields an (f,g)-alliance", drop)
		}
	}
	return nil
}
