package graph

import (
	"encoding/json"
	"fmt"
	"strings"
)

// DOT renders the graph in Graphviz DOT syntax, one edge per line, nodes
// labelled by their index. Useful for debugging topologies from the CLI.
func (g *Graph) DOT(name string) string {
	if name == "" {
		name = "G"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "graph %s {\n", name)
	for u := 0; u < g.n; u++ {
		if g.Degree(u) == 0 {
			fmt.Fprintf(&b, "  %d;\n", u)
		}
	}
	for _, e := range g.Edges() {
		fmt.Fprintf(&b, "  %d -- %d;\n", e[0], e[1])
	}
	b.WriteString("}\n")
	return b.String()
}

// jsonGraph is the serialisation schema for MarshalJSON/UnmarshalJSON.
type jsonGraph struct {
	N     int      `json:"n"`
	Edges [][2]int `json:"edges"`
}

// MarshalJSON encodes the graph as {"n": ..., "edges": [[u,v], ...]}.
func (g *Graph) MarshalJSON() ([]byte, error) {
	return json.Marshal(jsonGraph{N: g.n, Edges: g.Edges()})
}

// UnmarshalJSON decodes a graph encoded by MarshalJSON.
func (g *Graph) UnmarshalJSON(data []byte) error {
	var jg jsonGraph
	if err := json.Unmarshal(data, &jg); err != nil {
		return fmt.Errorf("graph: decoding JSON: %w", err)
	}
	fresh, err := FromEdges(jg.N, jg.Edges)
	if err != nil {
		return fmt.Errorf("graph: decoding JSON: %w", err)
	}
	*g = *fresh
	return nil
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
