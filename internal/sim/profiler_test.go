package sim_test

import (
	"reflect"
	"testing"

	"sdr/internal/obs"
	"sdr/internal/scenario"
	"sdr/internal/sim"
)

// profiledRun runs unison on a ring of n processes under the daemon twice,
// without and with a profiler sampling every second step. Each run resolves
// the spec afresh, so a stateful daemon starts both runs in the same state.
func profiledRun(t *testing.T, n int, daemon string, extra ...sim.Option) (sim.Result, sim.Result, *obs.PhaseProfiler) {
	t.Helper()
	spec := scenario.Spec{
		Algorithm: "unison",
		Topology:  "ring",
		N:         n,
		Daemon:    daemon,
		Fault:     "random-all",
		Seed:      7,
		MaxSteps:  200,
	}
	execute := func(opts ...sim.Option) sim.Result {
		run, err := spec.Resolve()
		if err != nil {
			t.Fatalf("resolve: %v", err)
		}
		return run.Execute(opts...)
	}
	plain := execute(extra...)
	prof := obs.NewPhaseProfiler(2)
	profiled := execute(append(append([]sim.Option{}, extra...), sim.WithProfiler(prof))...)
	return plain, profiled, prof
}

// TestProfilerBitIdentical pins the profiler's safety property: attaching a
// profiler must not change a single bit of the run's Result, sequential or
// sharded (n=256 gives 4 real shards), under the synchronous,
// central-random and round-robin daemons.
func TestProfilerBitIdentical(t *testing.T) {
	for _, tc := range []struct {
		name  string
		extra []sim.Option
	}{
		{"sequential", nil},
		{"sharded", []sim.Option{sim.WithShards(4)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, daemon := range []string{"synchronous", "central-random", "round-robin"} {
				plain, profiled, _ := profiledRun(t, 256, daemon, tc.extra...)
				if !reflect.DeepEqual(plain, profiled) {
					t.Errorf("%s: profiled result differs from unprofiled one:\nplain:    %+v\nprofiled: %+v", daemon, plain, profiled)
				}
			}
		})
	}
}

func TestProfilerSequentialPhases(t *testing.T) {
	_, res, prof := profiledRun(t, 64, "synchronous")
	ep := prof.Profile()
	if ep.Steps != res.Steps {
		t.Fatalf("profiler saw %d steps, engine ran %d", ep.Steps, res.Steps)
	}
	// Steps 0,2,4,… are sampled.
	if want := (res.Steps + 1) / 2; ep.SampledSteps != want {
		t.Fatalf("sampled %d steps, want %d of %d", ep.SampledSteps, want, res.Steps)
	}
	wantPhases := []string{obs.PhaseSelect, obs.PhaseExecute, obs.PhaseGuard, obs.PhaseAccount}
	if len(ep.Phases) != len(wantPhases) {
		t.Fatalf("phases = %+v, want %v", ep.Phases, wantPhases)
	}
	for i, ph := range ep.Phases {
		if ph.Phase != wantPhases[i] {
			t.Errorf("phase %d = %q, want %q", i, ph.Phase, wantPhases[i])
		}
		if ph.Count != ep.SampledSteps {
			t.Errorf("phase %q count = %d, want one per sampled step (%d)", ph.Phase, ph.Count, ep.SampledSteps)
		}
	}
	if len(ep.Shards) != 0 {
		t.Errorf("sequential run reported shard breakdowns: %+v", ep.Shards)
	}
	// The four phases bracket the whole loop body, so their sum cannot
	// exceed the measured step wall time.
	if ep.PhaseTotal() > ep.StepWall {
		t.Errorf("phase total %v exceeds step wall %v", ep.PhaseTotal(), ep.StepWall)
	}
	if ep.StepWall <= 0 {
		t.Error("no step wall time recorded")
	}
}

// TestProfilerShardedPhases pins that the phase names follow the requested
// mode: n=64 caps WithShards(4) to one shard, and the run still reports the
// sharded phases.
func TestProfilerShardedPhases(t *testing.T) {
	_, _, prof := profiledRun(t, 64, "synchronous", sim.WithShards(4))
	ep := prof.Profile()
	wantPhases := []string{obs.PhaseSelect, obs.PhaseExecute, obs.PhaseMerge, obs.PhaseBoundary, obs.PhaseAccount}
	if len(ep.Phases) != len(wantPhases) {
		t.Fatalf("phases = %+v, want %v", ep.Phases, wantPhases)
	}
	for i, ph := range ep.Phases {
		if ph.Phase != wantPhases[i] {
			t.Errorf("phase %d = %q, want %q", i, ph.Phase, wantPhases[i])
		}
	}
}

// TestProfilerPhasesCoverStepWall pins that the named phases account for the
// step, sequential and on 4 real shards: they cover at least 80% of the
// sampled step wall time (the rest is loop glue and the clock reads
// themselves), and every shard reports its execute and boundary exchange
// times.
func TestProfilerPhasesCoverStepWall(t *testing.T) {
	spec := scenario.Spec{
		Algorithm: "unison",
		Topology:  "torus",
		N:         4096,
		Daemon:    "synchronous",
		Fault:     "random-all",
		Seed:      1,
	}
	run, err := spec.Resolve()
	if err != nil {
		t.Fatalf("resolve: %v", err)
	}
	for _, shards := range []int{1, 4} {
		prof := obs.NewPhaseProfiler(1)
		// Unison keeps every process enabled once it has converged, so a
		// fixed step budget times full steps.
		run.Engine.Run(run.Start, sim.WithMaxSteps(20), sim.WithShards(shards), sim.WithProfiler(prof))
		ep := prof.Profile()
		if cover := ep.Coverage(); cover < 0.8 {
			t.Errorf("shards=%d: phases cover %.0f%% of the step wall (%v of %v), want ≥ 80%%",
				shards, 100*cover, ep.PhaseTotal(), ep.StepWall)
		}
		if shards == 1 {
			continue
		}
		if len(ep.Shards) != shards {
			t.Fatalf("shards=%d: %d shard breakdowns", shards, len(ep.Shards))
		}
		for _, sb := range ep.Shards {
			phases := map[string]bool{}
			for _, ph := range sb.Phases {
				phases[ph.Phase] = true
				if ph.Total < 0 {
					t.Errorf("shard %d phase %q has negative total", sb.Shard, ph.Phase)
				}
			}
			if !phases[obs.PhaseExecute] || !phases[obs.PhaseBoundary] {
				t.Errorf("shard %d missing execute/boundary breakdown: %+v", sb.Shard, sb.Phases)
			}
		}
	}
}
