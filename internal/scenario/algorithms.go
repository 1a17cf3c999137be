package scenario

import (
	"fmt"
	"hash/fnv"
	"slices"

	"sdr/internal/alliance"
	"sdr/internal/core"
	"sdr/internal/graph"
	"sdr/internal/sim"
	"sdr/internal/spantree"
	"sdr/internal/trace"
	"sdr/internal/unison"
)

// Assembly is what an algorithm registry entry builds for a concrete
// network: the algorithm itself plus the metadata the run pipeline needs.
type Assembly struct {
	// Algorithm is the built algorithm.
	Algorithm sim.Algorithm
	// Inner is the inner Resettable when Algorithm is a composition I ∘ SDR,
	// nil otherwise.
	Inner core.Resettable
	// Legitimate is the per-process legitimacy predicate used to measure
	// stabilization: a configuration is legitimate when it holds at every
	// process (nil when the entry defines none).
	Legitimate sim.ProcessPredicate
	// Terminating reports whether executions terminate (silent algorithms).
	Terminating bool
}

// AlgorithmEntry is one named algorithm of the registry.
type AlgorithmEntry struct {
	// Name is the registry key.
	Name string
	// Kind groups variants of the same algorithm family ("unison", "bpv",
	// "alliance", "bfstree") for presentation purposes.
	Kind string
	// Composed reports whether the entry builds a composition I ∘ SDR.
	Composed bool
	// Description is a one-line summary for -list output.
	Description string
	// Build assembles the algorithm on the given network.
	Build func(g *graph.Graph, net *sim.Network, p Params) (Assembly, error)
	// Report decides the algorithm-specific outcome of a finished run
	// (optional; nil means "no output check"). It formats nothing;
	// Report.Lines formats the outcome on demand from what it computed.
	Report func(r *Run, res sim.Result) Report
}

var algorithmRegistry = newRegistry[AlgorithmEntry]("algorithm")

// RegisterAlgorithm adds an entry to the algorithm registry. It panics on
// duplicate names; call it from init functions or test setup only.
func RegisterAlgorithm(e AlgorithmEntry) { algorithmRegistry.add(e.Name, e) }

// Algorithms returns the registered algorithm names in registration order.
func Algorithms() []string { return algorithmRegistry.list() }

// AlgorithmByName returns the entry with the given name.
func AlgorithmByName(name string) (AlgorithmEntry, error) { return algorithmRegistry.lookup(name) }

// periodOf returns the unison period for Params.K on an n-process network.
func periodOf(p Params, n int) int {
	if p.K > 0 {
		return p.K
	}
	return unison.DefaultPeriod(n)
}

// allianceSpecByName returns the Section 6.1 alliance spec with the given
// name ("" means dominating-set).
func allianceSpecByName(name string) (alliance.Spec, error) {
	if name == "" {
		return alliance.DominatingSet(), nil
	}
	for _, s := range alliance.StandardSpecs() {
		if s.Name == name {
			return s, nil
		}
	}
	var known []string
	for _, s := range alliance.StandardSpecs() {
		known = append(known, s.Name)
	}
	return alliance.Spec{}, fmt.Errorf("%w: alliance spec %q (known: %v)", ErrUnknown, name, known)
}

// buildAllianceComposed assembles FGA ∘ SDR for the given spec.
func buildAllianceComposed(spec alliance.Spec, g *graph.Graph) (Assembly, error) {
	if err := spec.Validate(g); err != nil {
		return Assembly{}, fmt.Errorf("%w: %v", ErrUnsatisfiable, err)
	}
	comp := alliance.NewSelfStabilizing(spec)
	return Assembly{
		Algorithm:   comp,
		Inner:       comp.Inner(),
		Legitimate:  core.NormalPredicate(comp.Inner()),
		Terminating: true,
	}, nil
}

// buildAllianceStandalone assembles FGA alone for the given spec.
func buildAllianceStandalone(spec alliance.Spec, g *graph.Graph) (Assembly, error) {
	if err := spec.Validate(g); err != nil {
		return Assembly{}, fmt.Errorf("%w: %v", ErrUnsatisfiable, err)
	}
	return Assembly{Algorithm: core.NewStandalone(alliance.NewFGA(spec)), Terminating: true}, nil
}

// allianceReport decides the alliance outcome: the member set and whether it
// is a 1-minimal (f,g)-alliance.
func allianceReport(spec alliance.Spec) func(r *Run, res sim.Result) Report {
	return func(r *Run, res sim.Result) Report {
		members := alliance.Members(res.Final)
		isAlliance := alliance.IsAlliance(r.Net.Graph(), spec, members)
		minimal := alliance.Is1Minimal(r.Net.Graph(), spec, members)
		return Report{
			OK: res.Terminated && isAlliance && minimal,
			render: func() []string {
				first := fmt.Sprintf("alliance  : %v (size %d)", members, len(members))
				if summarized(res.Final) {
					first = fmt.Sprintf("alliance  : size %d, %s", len(members), digest(res.Final))
				}
				return []string{first, fmt.Sprintf("valid     : alliance=%v, 1-minimal=%v", isAlliance, minimal)}
			},
		}
	}
}

// paramsAllianceReport serves the entries whose spec Params.AllianceSpec
// names; an unknown name fails (Build already rejects it, so resolved runs
// never get here).
func paramsAllianceReport(r *Run, res sim.Result) Report {
	spec, err := allianceSpecByName(r.Spec.Params.AllianceSpec)
	if err != nil {
		return Report{}
	}
	return allianceReport(spec)(r, res)
}

func init() {
	RegisterAlgorithm(AlgorithmEntry{
		Name:        "unison",
		Kind:        "unison",
		Composed:    true,
		Description: "Algorithm U ∘ SDR: self-stabilizing unison via the cooperative reset (Section 5); K = n+1 unless Params.K is set",
		Build: func(g *graph.Graph, net *sim.Network, p Params) (Assembly, error) {
			comp := unison.NewSelfStabilizing(periodOf(p, g.N()))
			return Assembly{
				Algorithm:  comp,
				Inner:      comp.Inner(),
				Legitimate: core.NormalPredicate(comp.Inner()),
			}, nil
		},
		Report: unisonReport,
	})
	RegisterAlgorithm(AlgorithmEntry{
		Name:        "unison-standalone",
		Kind:        "unison",
		Description: "Algorithm U alone from its pre-defined initial configuration (not self-stabilizing)",
		Build: func(g *graph.Graph, net *sim.Network, p Params) (Assembly, error) {
			return Assembly{Algorithm: core.NewStandalone(unison.New(periodOf(p, g.N())))}, nil
		},
		Report: unisonReport,
	})
	RegisterAlgorithm(AlgorithmEntry{
		Name:        "unison-uncoop",
		Kind:        "unison",
		Composed:    true,
		Description: "ablation A1: U ∘ SDR with uncooperative resets (joining processes become roots of their own reset)",
		Build: func(g *graph.Graph, net *sim.Network, p Params) (Assembly, error) {
			comp := unison.NewSelfStabilizingUncooperative(periodOf(p, g.N()))
			return Assembly{
				Algorithm:  comp,
				Inner:      comp.Inner(),
				Legitimate: core.NormalPredicate(comp.Inner()),
			}, nil
		},
		Report: unisonReport,
	})
	RegisterAlgorithm(AlgorithmEntry{
		Name:        "bpv",
		Kind:        "bpv",
		Description: "Boulinier-Petit-Villain self-stabilizing unison, the Section 5.3 baseline; K and α derived from the topology",
		Build: func(g *graph.Graph, net *sim.Network, p Params) (Assembly, error) {
			b := unison.NewBPVFor(g)
			return Assembly{Algorithm: b, Legitimate: b.LegitimatePredicate()}, nil
		},
		Report: func(r *Run, res sim.Result) Report {
			return Report{OK: res.LegitimateReached}
		},
	})
	RegisterAlgorithm(AlgorithmEntry{
		Name:        "bfstree",
		Kind:        "bfstree",
		Composed:    true,
		Description: "extension: silent self-stabilizing BFS spanning tree via B ∘ SDR, rooted at Params.Root",
		Build: func(g *graph.Graph, net *sim.Network, p Params) (Assembly, error) {
			comp := spantree.NewSelfStabilizing(g, p.Root)
			return Assembly{
				Algorithm:   comp,
				Inner:       comp.Inner(),
				Legitimate:  core.NormalPredicate(comp.Inner()),
				Terminating: true,
			}, nil
		},
		Report: bfsReport,
	})
	RegisterAlgorithm(AlgorithmEntry{
		Name:        "bfstree-standalone",
		Kind:        "bfstree",
		Description: "BFS spanning tree algorithm B alone from its pre-defined initial configuration",
		Build: func(g *graph.Graph, net *sim.Network, p Params) (Assembly, error) {
			return Assembly{Algorithm: core.NewStandalone(spantree.NewFor(g, p.Root)), Terminating: true}, nil
		},
		Report: bfsReport,
	})
	RegisterAlgorithm(AlgorithmEntry{
		Name:        "alliance",
		Kind:        "alliance",
		Composed:    true,
		Description: "FGA ∘ SDR for the alliance spec named by Params.AllianceSpec (default dominating-set)",
		Build: func(g *graph.Graph, net *sim.Network, p Params) (Assembly, error) {
			spec, err := allianceSpecByName(p.AllianceSpec)
			if err != nil {
				return Assembly{}, err
			}
			return buildAllianceComposed(spec, g)
		},
		Report: paramsAllianceReport,
	})
	RegisterAlgorithm(AlgorithmEntry{
		Name:        "alliance-standalone",
		Kind:        "alliance",
		Description: "FGA alone for the alliance spec named by Params.AllianceSpec (default dominating-set)",
		Build: func(g *graph.Graph, net *sim.Network, p Params) (Assembly, error) {
			spec, err := allianceSpecByName(p.AllianceSpec)
			if err != nil {
				return Assembly{}, err
			}
			return buildAllianceStandalone(spec, g)
		},
		Report: paramsAllianceReport,
	})
	// The six Section 6.1 special cases, each as composed and standalone
	// entries, so that sweeps can name them directly.
	for _, spec := range alliance.StandardSpecs() {
		spec := spec
		RegisterAlgorithm(AlgorithmEntry{
			Name:        spec.Name,
			Kind:        "alliance",
			Composed:    true,
			Description: fmt.Sprintf("FGA ∘ SDR computing a 1-minimal %s (Section 6.1)", spec.Name),
			Build: func(g *graph.Graph, net *sim.Network, p Params) (Assembly, error) {
				return buildAllianceComposed(spec, g)
			},
			Report: allianceReport(spec),
		})
		RegisterAlgorithm(AlgorithmEntry{
			Name:        spec.Name + "-standalone",
			Kind:        "alliance",
			Description: fmt.Sprintf("FGA alone computing a 1-minimal %s from γ_init", spec.Name),
			Build: func(g *graph.Graph, net *sim.Network, p Params) (Assembly, error) {
				return buildAllianceStandalone(spec, g)
			},
			Report: allianceReport(spec),
		})
	}
}

// unisonReport decides the unison outcome; its lines show the final clock
// configuration, or above trace.MaxListedProcesses the shortest circular arc
// of clocks modulo K that holds every clock, the number of distinct clocks
// and the configuration's digest.
func unisonReport(r *Run, res sim.Result) Report {
	ok := true
	if r.Legitimate != nil {
		ok = res.LegitimateReached
	}
	return Report{
		render: func() []string {
			if !summarized(res.Final) {
				return []string{fmt.Sprintf("final     : %s", res.Final)}
			}
			k := periodOf(r.Spec.Params, r.Net.N())
			clocks := unison.Clocks(res.Final)
			slices.Sort(clocks)
			clocks = slices.Compact(clocks)
			from, to := clockArc(clocks, k)
			return []string{fmt.Sprintf("final     : clocks on the arc %d..%d mod %d (span %d), %d distinct, %s",
				from, to, k, (to-from+k)%k, len(clocks), digest(res.Final))}
		},
		OK: ok,
	}
}

// clockArc returns the shortest circular arc modulo k, from one clock
// forward to another, that holds every clock of the sorted distinct list
// clocks: the complement of the largest gap between circularly adjacent
// clocks (the first such gap on a tie). Its span is k minus that gap.
func clockArc(clocks []int, k int) (from, to int) {
	last := len(clocks) - 1
	gap := clocks[0] + k - clocks[last] // the gap that wraps from K-1 to 0
	from, to = clocks[0], clocks[last]
	for i := 0; i < last; i++ {
		if g := clocks[i+1] - clocks[i]; g > gap {
			gap, from, to = g, clocks[i+1], clocks[i]
		}
	}
	return from, to
}

// bfsReport decides the spanning-tree outcome; its lines show the distance
// vector, or above trace.MaxListedProcesses its minimum, mean and maximum
// and the configuration's digest, and the exactness of the tree.
func bfsReport(r *Run, res sim.Result) Report {
	err := spantree.VerifyTree(r.Net.Graph(), r.Spec.Params.Root, res.Final)
	return Report{
		render: func() []string {
			dist := spantree.Distances(res.Final)
			first := fmt.Sprintf("bfs tree  : distances=%v", dist)
			if summarized(res.Final) {
				total := 0
				for _, d := range dist {
					total += d
				}
				first = fmt.Sprintf("bfs tree  : distances min %d, mean %.2f, max %d, %s",
					slices.Min(dist), float64(total)/float64(len(dist)), slices.Max(dist), digest(res.Final))
			}
			return []string{first, fmt.Sprintf("valid     : %v", err == nil)}
		},
		OK: res.Terminated && err == nil,
	}
}

// summarized reports whether a report summarises the final configuration
// instead of listing it: above trace.MaxListedProcesses processes, where
// trace.Summary also stops listing per-process move counts.
func summarized(c *sim.Configuration) bool { return c.N() > trace.MaxListedProcesses }

// digest renders an FNV-64a hash of the configuration's per-process state
// keys in process order. A summarised report carries it, so two reports
// still differ whenever their final configurations do.
func digest(c *sim.Configuration) string {
	h := fnv.New64a()
	var key []byte
	for u := 0; u < c.N(); u++ {
		key = append(sim.AppendStateKey(key[:0], c.State(u)), 0)
		h.Write(key)
	}
	return fmt.Sprintf("digest %016x", h.Sum64())
}
