package core_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"sdr/internal/core"
	"sdr/internal/faults"
	"sdr/internal/graph"
	"sdr/internal/scenario"
	"sdr/internal/sim"
)

// TestObserverMatchesReference runs the local monitor next to the retained
// global-scan oracle on static runs of every registered composition under
// every standard daemon, on small ring, torus and random graphs, from
// uniformly random and reset-biased starts. Every readout must agree. The
// uncooperative ablation creates alive roots, so the runs must also have
// seen a creation and a run of several segments.
func TestObserverMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"ring", graph.Ring(8)},
		{"torus", graph.Torus(3, 3)},
		{"random", graph.RandomConnected(9, 0.35, rng)},
	}
	created, multiSegment := false, false
	for _, gr := range graphs {
		net := sim.NewNetwork(gr.g)
		for _, nc := range composedEntries(t, gr.g, net) {
			c, err := faults.RandomConfiguration(nc.comp, net, rng)
			if err != nil {
				t.Fatalf("%s/%s: %v", nc.name, gr.name, err)
			}
			for si, start := range []*sim.Configuration{c, resetBiased(nc.comp, net, c, rng)} {
				for _, df := range sim.StandardDaemonFactories() {
					label := fmt.Sprintf("%s/%s/start%d/%s", nc.name, gr.name, si, df.Name)
					observer := core.NewObserver(nc.comp.Inner(), net)
					oracle := core.NewReferenceObserver(nc.comp, net)
					sim.NewEngine(net, nc.comp, df.New(int64(si)+3)).Run(start,
						sim.WithMaxSteps(3_000), sim.WithLegitimate(nc.legit), sim.WithStopWhenLegitimate(),
						sim.WithStepHook(observer.Hook()), sim.WithStepHook(oracle.Hook()))

					if got, want := observer.Segments(), oracle.Segments(); got != want {
						t.Errorf("%s: %d segments, oracle %d", label, got, want)
					}
					if got, want := observer.AliveRootViolations(), oracle.AliveRootViolations(); got != want {
						t.Errorf("%s: %d alive-root creations, oracle %d", label, got, want)
					}
					moves, want := observer.SDRMovesPerProcess(), oracle.SDRMovesPerProcess()
					if !slices.Equal(moves, want) {
						t.Errorf("%s: SDR moves %v, oracle %v", label, moves, want)
					}
					if got := observer.MaxSDRMoves(); got != slices.Max(want) {
						t.Errorf("%s: MaxSDRMoves %d, oracle's largest count %d", label, got, slices.Max(want))
					}
					if got, want := observer.LanguageViolation(), oracle.LanguageViolation(); (got == "") != (want == "") {
						t.Errorf("%s: language violation %q, oracle %q", label, got, want)
					}
					created = created || oracle.AliveRootViolations() > 0
					multiSegment = multiSegment || oracle.Segments() > 1
				}
			}
		}
	}
	if !created || !multiSegment {
		t.Errorf("no run created an alive root (%v) or ended a segment (%v)", created, multiSegment)
	}
}

// TestObserverBoundsUnderChurn runs every registered churn schedule on U∘SDR
// and B∘SDR over a 64-process torus. Each injected event starts a new
// fault-free execution, in which the paper's bounds hold: no alive root is
// created (Theorem 3), at most n+1 segments (Remark 5), at most 3n+3 SDR
// moves per process (Corollary 4) and the per-segment rule language
// (Theorem 4). An observer that counts the roots an event creates as
// creations, or its moves into the previous stretch, fails it.
func TestObserverBoundsUnderChurn(t *testing.T) {
	for _, alg := range []string{"unison", "bfstree"} {
		for _, churn := range scenario.ChurnSchedules() {
			for seed := int64(1); seed <= 3; seed++ {
				label := fmt.Sprintf("%s/%s/seed=%d", alg, churn, seed)
				run, err := scenario.Spec{
					Algorithm: alg, Topology: "torus", N: 64, Daemon: "distributed-random",
					Fault: "random-all", Churn: churn, Seed: seed, MaxSteps: 200_000,
				}.Resolve()
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				n := run.Net.N()
				observer := run.Observer()
				res := run.Execute(sim.WithStepHook(observer.Hook()))
				if len(res.Events) == 0 {
					t.Fatalf("%s: no event fired", label)
				}
				if v := observer.AliveRootViolations(); v != 0 {
					t.Errorf("%s: %d alive roots created within a fault-free stretch (Theorem 3)", label, v)
				}
				if s := observer.Segments(); s > core.MaxSegments(n) {
					t.Errorf("%s: %d segments in one stretch exceed n+1 = %d (Remark 5)", label, s, core.MaxSegments(n))
				}
				if m := observer.MaxSDRMoves(); m > core.MaxSDRMovesPerProcess(n) {
					t.Errorf("%s: %d SDR moves of one process in one stretch exceed 3n+3 = %d (Corollary 4)", label, m, core.MaxSDRMovesPerProcess(n))
				}
				if lv := observer.LanguageViolation(); lv != "" {
					t.Errorf("%s: Theorem 4 language violated: %s", label, lv)
				}
			}
		}
	}
}
