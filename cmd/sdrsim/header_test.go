package main

import (
	"testing"

	"sdr/internal/graph"
)

// TestTopologyLine checks the header's diameter field: exact up to
// exactDiameterMaxN nodes, and above it DiameterBounds' bracket, or the
// exact value when the bounds meet.
func TestTopologyLine(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		want string
	}{
		{"torus", graph.Torus(8, 8), "torus (n=64 m=128 Δ=4 D=8)"},
		{"torus", graph.Torus(64, 64), "torus (n=4096 m=8192 Δ=4 D=64)"},
		{"torus", graph.Torus(65, 65), "torus (n=4225 m=8450 Δ=4 D∈[64,128])"},
		{"star", graph.Star(5000), "star (n=5000 m=4999 Δ=4999 D=2)"},
	} {
		if got := topologyLine(tc.name, tc.g); got != tc.want {
			t.Errorf("topologyLine = %q, want %q", got, tc.want)
		}
	}
}
