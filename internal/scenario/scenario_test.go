package scenario

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"sdr/internal/obs"
	"sdr/internal/sim"
	"sdr/internal/unison"
)

func TestResolveEveryAlgorithm(t *testing.T) {
	// Every registered algorithm must resolve and execute on a small ring
	// (degree 2 satisfies every Section 6.1 alliance requirement) from both
	// a clean and a fully random start.
	for _, name := range Algorithms() {
		for _, fault := range []string{"none", "random-all"} {
			sp := Spec{
				Algorithm: name,
				Topology:  "ring",
				N:         6,
				Daemon:    "distributed-random",
				Fault:     fault,
				Seed:      5,
				MaxSteps:  50_000,
			}
			run, err := sp.Resolve()
			if err != nil {
				t.Errorf("Resolve(%s, %s): %v", name, fault, err)
				continue
			}
			if run.Alg == nil || run.Engine == nil || run.Start == nil || run.Daemon == nil {
				t.Errorf("Resolve(%s, %s): incomplete run %+v", name, fault, run)
				continue
			}
			entry, _ := AlgorithmByName(name)
			if entry.Composed != (run.Inner != nil) {
				t.Errorf("%s: Composed=%v but Inner=%v", name, entry.Composed, run.Inner)
			}
			res := run.Execute()
			// A run must either make progress, terminate, or stop because
			// its clean start is already legitimate.
			if res.Steps == 0 && !res.Terminated && !res.LegitimateReached {
				t.Errorf("%s/%s: execution made no progress", name, fault)
			}
			// The report must render without panicking even on truncated runs.
			_ = run.Report(res).Lines()
		}
	}
}

// mustResolve resolves a spec the test knows to be valid.
func mustResolve(t *testing.T, sp Spec) *Run {
	t.Helper()
	run, err := sp.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	return run
}

func TestResolveDeterministic(t *testing.T) {
	sp := Spec{Algorithm: "unison", Topology: "random", N: 10, Daemon: "distributed-random", Fault: "random-all", Seed: 42, MaxSteps: 100_000}
	a := mustResolve(t, sp)
	b := mustResolve(t, sp)
	if !a.Start.Equal(b.Start) {
		t.Fatal("equal specs resolved to different starting configurations")
	}
	ra, rb := a.Execute(), b.Execute()
	ra.Final, rb.Final = nil, nil // pointer-carrying field compared separately
	if !reflect.DeepEqual(ra, rb) {
		t.Fatalf("equal specs produced different results:\n%+v\n%+v", ra, rb)
	}
}

func TestResolveUnknownNames(t *testing.T) {
	base := Spec{Algorithm: "unison", Topology: "ring", N: 6, Daemon: "synchronous", Seed: 1}
	cases := []Spec{
		func() Spec { s := base; s.Algorithm = "nope"; return s }(),
		func() Spec { s := base; s.Topology = "nope"; return s }(),
		func() Spec { s := base; s.Daemon = "nope"; return s }(),
		func() Spec { s := base; s.Fault = "nope"; return s }(),
		func() Spec { s := base; s.Algorithm = "alliance"; s.Params.AllianceSpec = "nope"; return s }(),
	}
	for i, sp := range cases {
		if _, err := sp.Resolve(); !errors.Is(err, ErrUnknown) {
			t.Errorf("case %d: got %v, want ErrUnknown", i, err)
		}
	}
}

func TestResolveUnsatisfiableSpec(t *testing.T) {
	// A path's endpoints have degree 1 < the 2-tuple-domination requirement.
	sp := Spec{Algorithm: "2-tuple-domination", Topology: "path", N: 6, Daemon: "synchronous", Seed: 1}
	if _, err := sp.Resolve(); !errors.Is(err, ErrUnsatisfiable) {
		t.Fatalf("got %v, want ErrUnsatisfiable", err)
	}
}

// resolveNoPanic resolves sp and, when that succeeds, executes a few steps,
// failing the test if either panics: a malformed request must surface as
// an error at the resolve boundary, never as a crash of the caller.
func resolveNoPanic(t *testing.T, sp Spec) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Errorf("%+v panicked: %v", sp, r)
		}
	}()
	run, err := sp.Resolve()
	if err != nil {
		return
	}
	run.Execute()
}

// TestResolveNeverPanics drives Resolve with sizes and params the graph and
// algorithm constructors reject: every registered topology at n ∈ {-1, 0, 1,
// 2}, and out-of-range unison, BFS-tree and random-topology params.
func TestResolveNeverPanics(t *testing.T) {
	for _, topo := range Topologies() {
		for _, n := range []int{-1, 0, 1, 2} {
			resolveNoPanic(t, Spec{Algorithm: "unison", Topology: topo, N: n, Daemon: "synchronous", Seed: 1, MaxSteps: 100})
		}
	}
	for i, sp := range []Spec{
		{Algorithm: "unison", Topology: "ring", N: 6, Params: Params{K: 1}},
		{Algorithm: "bfstree", Topology: "ring", N: 6, Params: Params{Root: 100}},
		{Algorithm: "bfstree", Topology: "ring", N: 6, Params: Params{Root: -1}},
		{Algorithm: "unison", Topology: "random", N: 6, Params: Params{EdgeProb: 5}},
	} {
		sp.Daemon, sp.Seed, sp.MaxSteps = "synchronous", 1, 100
		t.Run(fmt.Sprint(i), func(t *testing.T) { resolveNoPanic(t, sp) })
	}
}

// TestResolveRejectsCaterpillarLegsAboveSize checks the caterpillar's size
// bound: an explicit Params.Legs ≥ n is an error naming the bound instead of
// a graph of legs+1 nodes or more, while Legs < n and the default (0, one
// leg per spine node) build a graph of about n nodes.
func TestResolveRejectsCaterpillarLegsAboveSize(t *testing.T) {
	sp := Spec{Algorithm: "unison", Topology: "caterpillar", N: 6, Daemon: "synchronous", Seed: 1, MaxSteps: 100}
	for _, legs := range []int{6, 7, 100_000} {
		sp.Params.Legs = legs
		if _, err := sp.Resolve(); err == nil || !strings.Contains(err.Error(), "must be below n") {
			t.Errorf("Legs = %d, n = 6: got error %v, want the legs bound", legs, err)
		}
	}
	for legs, want := range map[int]int{0: 6, 1: 6, 2: 6, 5: 6} {
		sp.Params.Legs = legs
		run, err := sp.Resolve()
		if err != nil {
			t.Fatalf("Legs = %d, n = 6: %v", legs, err)
		}
		if got := run.Net.N(); got != want {
			t.Errorf("Legs = %d, n = 6: %d nodes, want %d", legs, got, want)
		}
	}
}

func TestResolveComposedOnlyFault(t *testing.T) {
	sp := Spec{Algorithm: "bpv", Topology: "ring", N: 6, Daemon: "synchronous", Fault: "fake-wave", Seed: 1}
	if _, err := sp.Resolve(); err == nil {
		t.Fatal("a composed-only fault on a non-composed algorithm must be rejected")
	}
}

func TestExecuteStopsNonTerminatingAtLegitimate(t *testing.T) {
	sp := Spec{Algorithm: "unison", Topology: "ring", N: 8, Daemon: "synchronous", Fault: "random-all", Seed: 3, MaxSteps: 100_000}
	run := mustResolve(t, sp)
	if run.Terminating {
		t.Fatal("U∘SDR is not a terminating algorithm")
	}
	res := run.Execute()
	if !res.LegitimateReached {
		t.Fatal("the run did not stabilize")
	}
	if res.HitStepLimit {
		t.Fatal("a stabilizing run must not hit the step bound")
	}

	// Terminating compositions run to termination instead.
	bsp := sp
	bsp.Algorithm = "bfstree"
	brun := mustResolve(t, bsp)
	if !brun.Terminating {
		t.Fatal("B∘SDR is a terminating algorithm")
	}
	bres := brun.Execute()
	if !bres.Terminated {
		t.Fatal("B∘SDR did not terminate")
	}
	if !bres.LegitimateReached || bres.StabilizationMoves > bres.Moves {
		t.Fatalf("stabilization accounting looks wrong: %+v", bres)
	}
}

// TestSpecShardsReachTheEngine pins the Spec.Shards plumbing: sharded and
// sequential reports are identical, so the shard count can only be seen in
// the engine itself, through the per-shard rows of a phase profile.
func TestSpecShardsReachTheEngine(t *testing.T) {
	for _, shards := range []int{0, 1, 4} {
		sp := Spec{Algorithm: "unison", Topology: "torus", N: 256, Daemon: "synchronous", Fault: "random-all", Seed: 3, MaxSteps: 20, Shards: shards}
		prof := obs.NewPhaseProfiler(1)
		mustResolve(t, sp).Execute(sim.WithProfiler(prof))
		want := 0
		if shards > 1 {
			want = shards
		}
		if got := len(prof.Profile().Shards); got != want {
			t.Errorf("Spec.Shards = %d: the engine ran %d shard(s), want %d", shards, got, want)
		}
	}
}

func TestObserverTracksCompositions(t *testing.T) {
	sp := Spec{Algorithm: "unison", Topology: "ring", N: 8, Daemon: "synchronous", Fault: "random-all", Seed: 9, MaxSteps: 100_000}
	run := mustResolve(t, sp)
	obs := run.Observer()
	if obs == nil {
		t.Fatal("compositions must expose an observer")
	}
	run.Execute(sim.WithStepHook(obs.Hook()))
	if obs.Segments() < 0 || obs.MaxSDRMoves() < 0 {
		t.Fatalf("observer returned nonsense: segments=%d moves=%d", obs.Segments(), obs.MaxSDRMoves())
	}

	bsp := sp
	bsp.Algorithm = "bpv"
	if brun := mustResolve(t, bsp); brun.Observer() != nil {
		t.Fatal("non-composed algorithms must not expose an observer")
	}
}

func TestParamsKnobs(t *testing.T) {
	// Params.K overrides the unison period.
	sp := Spec{Algorithm: "unison", Topology: "ring", N: 6, Daemon: "synchronous", Seed: 1, Params: Params{K: 19}}
	run := mustResolve(t, sp)
	if got := run.Alg.Name(); got != "U(K=19)∘SDR" {
		t.Errorf("Params.K ignored: algorithm name %q", got)
	}
	// Params.EdgeProb steers the random topology density.
	dense := mustResolve(t, Spec{Algorithm: "unison", Topology: "random", N: 12, Daemon: "synchronous", Seed: 1, Params: Params{EdgeProb: 0.9}})
	sparse := mustResolve(t, Spec{Algorithm: "unison", Topology: "random", N: 12, Daemon: "synchronous", Seed: 1, Params: Params{EdgeProb: 0.05}})
	if dense.Net.Graph().M() <= sparse.Net.Graph().M() {
		t.Errorf("EdgeProb ignored: dense m=%d, sparse m=%d", dense.Net.Graph().M(), sparse.Net.Graph().M())
	}
}

// TestLargeReportsSummarize runs every report kind on 1000 processes: above
// trace.MaxListedProcesses a report summarises the final configuration in
// short lines that end with its digest, the digest is the same at every
// shard count, and it changes with any one process's state. The BFS line
// of a 1000-ring is checked in full.
func TestLargeReportsSummarize(t *testing.T) {
	for _, name := range []string{"unison", "unison-standalone", "bfstree", "alliance"} {
		sp := Spec{Algorithm: name, Topology: "ring", N: 1000, Daemon: "synchronous", Fault: "random-all", Seed: 1}
		if name == "unison-standalone" {
			sp.Fault = "none"
			sp.MaxSteps = 50
		}
		run := mustResolve(t, sp)
		res := run.Execute()
		rep := run.Report(res)
		if !rep.OK {
			t.Errorf("%s: report not OK", name)
		}
		lines := rep.Lines()
		for _, l := range lines {
			if len(l) > 120 {
				t.Errorf("%s: report line of %d bytes: %.80s...", name, len(l), l)
			}
		}
		want := digest(res.Final)
		if len(lines) == 0 || !strings.HasSuffix(lines[0], want) {
			t.Fatalf("%s: first report line %q does not end with %q", name, lines, want)
		}
		if bfs := "bfs tree  : distances min 0, mean 250.00, max 500, " + want; name == "bfstree" && lines[0] != bfs {
			t.Errorf("bfstree on a 1000-ring: %q, want %q", lines[0], bfs)
		}

		sp.Shards = 4
		sharded := mustResolve(t, sp)
		if got := sharded.Report(sharded.Execute()).Lines(); !reflect.DeepEqual(got, lines) {
			t.Errorf("%s: 4 shards report %q, 1 shard %q", name, got, lines)
		}

		changed := res.Final.Clone()
		changed.SetState(999, res.Final.State(0))
		if res.Final.State(999).Equal(res.Final.State(0)) {
			changed.SetState(999, res.Final.State(1))
		}
		if !changed.Equal(res.Final) && digest(changed) == want {
			t.Errorf("%s: digest did not change with process 999's state", name)
		}
	}

	// Unison clocks wrap modulo K = 1001: a legitimate configuration that
	// straddles K−1 and 0 lies on a short arc, not on the range [0, K−1].
	run := mustResolve(t, Spec{Algorithm: "unison-standalone", Topology: "ring", N: 1000, Daemon: "synchronous", Fault: "none", Seed: 1})
	states := make([]sim.State, 1000)
	for u := range states {
		states[u] = unison.ClockState{C: (999 + min(u, 999-u, 3)) % 1001}
	}
	final := sim.NewConfiguration(states)
	want := "final     : clocks on the arc 999..1 mod 1001 (span 3), 4 distinct, " + digest(final)
	if got := run.Report(sim.Result{Final: final}).Lines(); len(got) == 0 || got[0] != want {
		t.Errorf("clocks straddling K-1 and 0: %q, want %q", got, want)
	}
}
