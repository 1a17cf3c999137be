package scenario

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"sdr/internal/alliance"
	"sdr/internal/core"
	"sdr/internal/graph"
	"sdr/internal/sim"
)

// The completeness tests pin the registries to the exported surface of the
// library: every exported topology generator, daemon factory, fault scenario
// and alliance spec must be reachable through a registry entry, and every
// registered name must resolve to a working entry. Adding a constructor
// without registering it fails here.

func TestEveryRegisteredNameResolves(t *testing.T) {
	for _, name := range Algorithms() {
		if _, err := AlgorithmByName(name); err != nil {
			t.Errorf("algorithm %q: %v", name, err)
		}
	}
	for _, name := range Topologies() {
		entry, err := TopologyByName(name)
		if err != nil {
			t.Errorf("topology %q: %v", name, err)
			continue
		}
		g := entry.Build(8, Params{}, rand.New(rand.NewSource(1)))
		if err := g.Validate(); err != nil {
			t.Errorf("topology %q builds an invalid graph: %v", name, err)
		}
		if entry.Description == "" {
			t.Errorf("topology %q has no description", name)
		}
	}
	for _, name := range Daemons() {
		entry, err := DaemonByName(name)
		if err != nil {
			t.Errorf("daemon %q: %v", name, err)
			continue
		}
		if d := entry.New(1); d == nil || d.Name() != name {
			t.Errorf("daemon %q builds %v", name, d)
		}
		if entry.Description == "" {
			t.Errorf("daemon %q has no description", name)
		}
	}
	for _, name := range FaultModels() {
		if _, err := FaultByName(name); err != nil {
			t.Errorf("fault model %q: %v", name, err)
		}
	}
}

// topologyGeneratorCoverage maps every exported graph generator to the
// registry entry that wraps it. Adding a generator to internal/graph without
// registering a topology fails the coverage test below.
var topologyGeneratorCoverage = map[string]string{
	"Ring":             "ring",
	"Path":             "path",
	"Star":             "star",
	"Complete":         "complete",
	"BinaryTree":       "binary-tree",
	"Grid":             "grid",
	"Torus":            "torus",
	"Hypercube":        "hypercube",
	"Caterpillar":      "caterpillar",
	"Lollipop":         "lollipop",
	"RandomTree":       "tree",
	"RandomConnected":  "random",
	"RandomRegularish": "random-regular",
}

func TestEveryGraphGeneratorRegistered(t *testing.T) {
	for generator, name := range topologyGeneratorCoverage {
		if _, err := TopologyByName(name); err != nil {
			t.Errorf("generator graph.%s has no registry entry %q: %v", generator, name, err)
		}
	}
	// Spot-check that the entries actually produce the advertised shapes.
	shapes := map[string]func(g *graph.Graph) bool{
		"ring":      func(g *graph.Graph) bool { return g.N() == 8 && g.M() == 8 },
		"path":      func(g *graph.Graph) bool { return g.N() == 8 && g.M() == 7 },
		"star":      func(g *graph.Graph) bool { return g.N() == 8 && g.Degree(0) == 7 },
		"complete":  func(g *graph.Graph) bool { return g.N() == 8 && g.M() == 28 },
		"grid":      func(g *graph.Graph) bool { return g.N() == 8 }, // 2×4
		"torus":     func(g *graph.Graph) bool { return g.N() == 9 }, // 3×3 ≥ 8
		"hypercube": func(g *graph.Graph) bool { return g.N() == 8 }, // 2³
		"tree":      func(g *graph.Graph) bool { return g.N() == 8 && g.M() == 7 },
	}
	for name, check := range shapes {
		entry, err := TopologyByName(name)
		if err != nil {
			t.Fatalf("topology %q: %v", name, err)
		}
		if g := entry.Build(8, Params{}, rand.New(rand.NewSource(2))); !check(g) {
			t.Errorf("topology %q built unexpected shape: n=%d m=%d", name, g.N(), g.M())
		}
	}
}

func TestEveryDaemonFactoryRegistered(t *testing.T) {
	factories := sim.StandardDaemonFactories()
	names := Daemons()
	if len(names) < len(factories) {
		t.Fatalf("%d daemons registered for %d standard factories", len(names), len(factories))
	}
	for i, df := range factories {
		if i >= len(names) || names[i] != df.Name {
			t.Errorf("standard daemon %q missing or out of order in the registry (got %v)", df.Name, names)
		}
	}
}

func TestEveryFaultScenarioRegistered(t *testing.T) {
	if _, err := FaultByName("none"); err != nil {
		t.Error("the none fault model must be registered")
	}
	for _, name := range []string{"random-all", "inner-only", "fake-wave", "half-corrupt"} {
		entry, err := FaultByName(name)
		if err != nil {
			t.Errorf("standard scenario %q has no registry entry: %v", name, err)
			continue
		}
		if wantComposed := name == "inner-only" || name == "fake-wave"; entry.ComposedOnly != wantComposed {
			t.Errorf("fault %q: ComposedOnly = %v, want %v", name, entry.ComposedOnly, wantComposed)
		}
	}
}

func TestEveryAllianceSpecRegistered(t *testing.T) {
	for _, spec := range alliance.StandardSpecs() {
		for _, name := range []string{spec.Name, spec.Name + "-standalone"} {
			entry, err := AlgorithmByName(name)
			if err != nil {
				t.Errorf("alliance spec %q has no registry entry %q: %v", spec.Name, name, err)
				continue
			}
			if entry.Kind != "alliance" {
				t.Errorf("entry %q has kind %q, want alliance", name, entry.Kind)
			}
		}
	}
	// The unison, BPV and spanning-tree families must be present with their
	// ± SDR variants.
	for _, name := range []string{"unison", "unison-standalone", "unison-uncoop", "bpv", "bfstree", "bfstree-standalone", "alliance", "alliance-standalone"} {
		if _, err := AlgorithmByName(name); err != nil {
			t.Errorf("core algorithm %q not registered: %v", name, err)
		}
	}
}

func TestRegisterRejectsDuplicates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("registering a duplicate name must panic")
		}
	}()
	RegisterDaemon(DaemonEntry{Name: "synchronous", New: func(int64) sim.Daemon { return sim.SynchronousDaemon{} }})
}

// TestRegisteredStateSpaces checks the state space of every enumerable
// registered algorithm on a ring and a star, at every process: StateAt over
// [0, StateCount) yields pairwise-distinct states, the space holds the
// pre-defined initial state, and a composition's space holds the reset inner
// state under statuses C, RB and RF at distance 0, the states a reset wave
// rooted at the process passes through. Seeded corruptions draw uniformly
// through this space, so a duplicate would bias them and a missing reset
// state would leave the reset machinery's own states out of the fault model.
func TestRegisteredStateSpaces(t *testing.T) {
	for _, g := range []*graph.Graph{graph.Ring(5), graph.Star(5)} {
		net := sim.NewNetwork(g)
		for _, name := range Algorithms() {
			entry, err := AlgorithmByName(name)
			if err != nil {
				t.Fatal(err)
			}
			asm, err := entry.Build(g, net, Params{})
			if errors.Is(err, ErrUnsatisfiable) {
				continue
			}
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			enum, ok := asm.Algorithm.(sim.Enumerable)
			if !ok || enum.StateCount(0, net) == 0 {
				t.Errorf("%s does not enumerate its states", name)
				continue
			}
			for u := 0; u < net.N(); u++ {
				space := sim.StateSpace(enum, u, net)
				for i, s := range space {
					for j := i + 1; j < len(space); j++ {
						if s.Equal(space[j]) {
							t.Fatalf("%s on n=%d: process %d enumerates %s at %d and %d", name, g.N(), u, s, i, j)
						}
					}
				}
				want := []sim.State{asm.Algorithm.InitialState(u, net)}
				if asm.Inner != nil {
					reset := asm.Inner.ResetState(u, net)
					for _, st := range []core.Status{core.StatusC, core.StatusRB, core.StatusRF} {
						want = append(want, core.ComposedState{SDR: core.SDRState{St: st}, Inner: reset})
					}
				}
				for _, w := range want {
					if !slices.ContainsFunc(space, w.Equal) {
						t.Errorf("%s on n=%d: process %d's space lacks %s", name, g.N(), u, w)
					}
				}
			}
		}
	}
}
