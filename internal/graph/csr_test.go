package graph

import (
	"math/rand"
	"testing"
)

// randomSimple builds a random simple connected graph in overlay (mutable)
// form: a spanning path plus extra random edges.
func randomSimple(t *testing.T, n int, extra int, seed int64) *Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := New(n)
	for u := 1; u < n; u++ {
		g.MustAddEdge(u-1, u)
	}
	for added := 0; added < extra; {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v || g.HasEdge(u, v) {
			continue
		}
		g.MustAddEdge(u, v)
		added++
	}
	return g
}

// TestCSRStructure checks the invariants of the compacted arrays: offsets
// are monotone with off[0]=0 and off[n]=2m, every row is strictly sorted,
// and the relation is symmetric.
func TestCSRStructure(t *testing.T) {
	g := randomSimple(t, 200, 300, 7)
	off, tgt := g.CSR()
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

// TestCSRReadsMatchOverlay checks that Degree, Neighbor and HasEdge answer identically from the mutable overlay and from the compacted
// CSR form of the same graph.
func TestCSRReadsMatchOverlay(t *testing.T) {
	overlay := randomSimple(t, 150, 200, 11)
	compacted := overlay.Clone()
	compacted.CSR() // force compaction; overlay stays in mutable form
	if overlay.adj == nil {
		t.Fatal("overlay graph unexpectedly compacted")
	}
	if compacted.adj != nil {
		t.Fatal("compacted graph still has the overlay")
	}
	for u := 0; u < overlay.N(); u++ {
		if do, dc := overlay.Degree(u), compacted.Degree(u); do != dc {
			t.Fatalf("Degree(%d): overlay %d, csr %d", u, do, dc)
		}
		for i := 0; i < overlay.Degree(u); i++ {
			if no, nc := overlay.Neighbor(u, i), compacted.Neighbor(u, i); no != nc {
				t.Fatalf("Neighbor(%d,%d): overlay %d, csr %d", u, i, no, nc)
			}
		}
	}
	for u := 0; u < overlay.N(); u++ {
		for v := 0; v < overlay.N(); v++ {
			if overlay.HasEdge(u, v) != compacted.HasEdge(u, v) {
				t.Fatalf("HasEdge(%d,%d) disagrees between forms", u, v)
			}
		}
	}
	if !overlay.Equal(compacted) || !compacted.Equal(overlay) {
		t.Fatal("Equal disagrees between forms")
	}
}

// TestCSRMutationRoundTrip checks that edits after compaction re-enter the
// overlay, are visible immediately, and compact back into consistent arrays.
func TestCSRMutationRoundTrip(t *testing.T) {
	g := randomSimple(t, 64, 40, 3)
	g.CSR()
	m := g.M()
	g.MustRemoveEdge(0, 1)
	if g.HasEdge(0, 1) || g.M() != m-1 {
		t.Fatalf("remove not visible: HasEdge=%v m=%d", g.HasEdge(0, 1), g.M())
	}
	if g.adj == nil {
		t.Fatal("mutation did not re-enter the overlay form")
	}
	g.MustAddEdge(0, 63)
	off, tgt := g.CSR()
	if int(off[g.N()]) != 2*g.M() || len(tgt) != 2*g.M() {
		t.Fatalf("recompaction inconsistent: off[n]=%d len(tgt)=%d m=%d", off[g.N()], len(tgt), g.M())
	}
	if !g.HasEdge(0, 63) || g.HasEdge(0, 1) {
		t.Fatal("edits lost across recompaction")
	}
	// A second CSR call without edits must return the same backing arrays.
	off2, tgt2 := g.CSR()
	if &off2[0] != &off[0] || &tgt2[0] != &tgt[0] {
		t.Fatal("CSR recompacted without pending edits")
	}
}

// TestCSREdgeless covers isolated nodes: empty rows and empty targets.
func TestCSREdgeless(t *testing.T) {
	g := New(3)
	off, tgt := g.CSR()
	if len(off) != 4 || len(tgt) != 0 {
		t.Fatalf("edgeless CSR: off=%v tgt=%v", off, tgt)
	}
	for _, o := range off {
		if o != 0 {
			t.Fatalf("edgeless offsets must be zero: %v", off)
		}
	}
	if g.Degree(1) != 0 {
		t.Fatalf("Degree(1) = %d on edgeless graph", g.Degree(1))
	}
}
