// Command sdrsim runs one simulated execution of a reproduced algorithm on a
// chosen topology, under a chosen daemon, from a chosen (possibly corrupted)
// starting configuration, and prints the trace summary and the stabilization
// measurements. It is a thin flag parser over the internal/scenario
// registries: every combination it can run is a scenario.Spec, and -list
// shows everything the registries know.
//
// Beyond simulation, -verify switches to exhaustive certification: instead
// of sampling one daemon schedule, every daemon choice (up to the selection
// cap) is explored from a set of seeded corrupted starts and the run's
// convergence property is model-checked on the reachable space.
//
// Usage examples:
//
//	sdrsim -algorithm unison -topology ring -n 16 -daemon distributed-random -scenario random-all
//	sdrsim -algorithm alliance -spec dominating-set -topology random -n 12 -trace
//	sdrsim -algorithm bpv -topology ring -n 10 -scenario random-all
//	sdrsim -algorithm unison -topology ring -n 5 -verify -verify-starts 8
//	sdrsim -algorithm unison -topology torus -n 16 -churn poisson-mixed
//	sdrsim -algorithm unison -topology torus -n 1024 -profile-steps 4
//	sdrsim -list
//	sdrsim -list -json
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"

	"sdr/internal/core"
	"sdr/internal/graph"
	"sdr/internal/obs"
	"sdr/internal/scenario"
	"sdr/internal/sim"
	"sdr/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "sdrsim:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("sdrsim", flag.ContinueOnError)
	var (
		sp        scenario.Spec
		vo        scenario.VerifyOptions
		list      = fs.Bool("list", false, "list the registered algorithms, topologies, daemons and fault models, then exit")
		jsonList  = fs.Bool("json", false, "with -list, print the machine-readable registry dump (the same bytes sdrbench -list -json prints and sdrd serves at /v1/registry)")
		showTrace = fs.Bool("trace", false, "print the full step-by-step trace")
		format    = fs.String("format", "text", "trace format when -trace is set: text, csv, json")
		verify    = fs.Bool("verify", false, "exhaustively certify the run's convergence property instead of simulating one schedule (small n only)")
	)
	fs.IntVar(&vo.Starts, "verify-starts", 4, "number of seeded corrupted starts the verification explores from")
	fs.IntVar(&vo.MaxConfigurations, "verify-max-configs", 0, "configuration cap of the exploration (0 = checker default)")
	fs.IntVar(&vo.MaxSelectionSize, "verify-max-selection", 1, "daemon selection size cap: k certifies daemons activating ≤ k processes per step; 0 is exact but exponential in the enabled-set size")
	fs.IntVar(&vo.Workers, "verify-workers", 0, "exploration worker pool size (0 = one per CPU); verdicts are identical for every value")
	fs.StringVar(&sp.Algorithm, "algorithm", "unison", "algorithm registry entry (see -list)")
	fs.StringVar(&sp.Params.AllianceSpec, "spec", "dominating-set", "alliance spec for the generic alliance entries (see -list)")
	fs.StringVar(&sp.Topology, "topology", "ring", "topology registry entry (see -list)")
	fs.IntVar(&sp.N, "n", 12, "number of processes (rounded by structured topologies)")
	fs.IntVar(&sp.Params.K, "k", 0, "unison period K (0 means n+1)")
	fs.IntVar(&sp.Params.Root, "root", 0, "root process of the spanning-tree algorithms")
	fs.StringVar(&sp.Daemon, "daemon", "distributed-random", "daemon registry entry (see -list)")
	fs.StringVar(&sp.Fault, "scenario", "random-all", "fault-model registry entry (see -list)")
	fs.StringVar(&sp.Churn, "churn", "", "mid-run churn schedule: a registered name or a grammar form like periodic:events=3,every=200 (see -list); empty runs statically")
	fs.Int64Var(&sp.Seed, "seed", 1, "random seed")
	fs.IntVar(&sp.MaxSteps, "max-steps", 2_000_000, "step bound")
	fs.IntVar(&sp.Shards, "shards", 0, "engine shard count (see sim.WithShards); 0 or 1 runs the sequential engine, >1 runs sharded with a bit-identical report")
	profileSteps := fs.Int("profile-steps", 0, "sample every k-th engine step and append a per-phase timing block to the report (0 = off; timing is observational, the run itself is unchanged)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *profileSteps < 0 {
		return fmt.Errorf("-profile-steps must be ≥ 0, got %d", *profileSteps)
	}
	if *list {
		if *jsonList {
			return scenario.WriteRegistryJSON(out)
		}
		printRegistries(out)
		return nil
	}
	if *verify {
		if sp.Churn != "" {
			return fmt.Errorf("-churn is not supported with -verify: exhaustive certification explores static runs only")
		}
		if sp.Shards > 1 {
			return fmt.Errorf("-shards is not supported with -verify: exhaustive certification explores the sequential engine only")
		}
		if vo.Workers <= 0 {
			vo.Workers = runtime.NumCPU()
		}
		return certify(sp, vo, out)
	}
	return simulate(sp, *showTrace, *format, *profileSteps, out)
}

// exactDiameterMaxN is the largest node count for which the header prints
// the exact diameter. Graph.Diameter usually needs a handful of BFS runs but
// may need one per node, which on Torus(255, 255) takes tens of seconds, so
// larger graphs get the bounds of its first three runs.
const exactDiameterMaxN = 1 << 12

// topologyLine describes the topology for the report header: its name, n,
// m, Δ and D, or the bracket D∈[lo,hi] above exactDiameterMaxN nodes unless
// the bounds meet.
func topologyLine(name string, g *graph.Graph) string {
	var d string
	if g.N() <= exactDiameterMaxN {
		d = fmt.Sprintf("D=%d", g.Diameter())
	} else if lo, hi := g.DiameterBounds(); lo == hi {
		d = fmt.Sprintf("D=%d", lo)
	} else {
		d = fmt.Sprintf("D∈[%d,%d]", lo, hi)
	}
	return fmt.Sprintf("%s (n=%d m=%d Δ=%d %s)", name, g.N(), g.M(), g.MaxDegree(), d)
}

// certify resolves the Spec and model-checks its convergence property on the
// space reachable from the seeded starts, under every daemon choice up to
// the selection cap.
func certify(sp scenario.Spec, vo scenario.VerifyOptions, out io.Writer) error {
	run, err := sp.Resolve()
	if err != nil {
		return err
	}
	g := run.Net.Graph()
	fmt.Fprintf(out, "algorithm : %s\n", run.Alg.Name())
	fmt.Fprintf(out, "topology  : %s\n", topologyLine(run.Spec.Topology, g))
	daemons := "every daemon"
	if vo.MaxSelectionSize > 0 {
		daemons = fmt.Sprintf("every daemon activating ≤%d process(es) per step", vo.MaxSelectionSize)
	}
	fmt.Fprintf(out, "verify    : scenario %s, seed %d, %d start(s), %s\n", run.Spec.Fault, run.Spec.Seed, max(vo.Starts, 1), daemons)

	report, verr := run.Verify(vo)
	if verr != nil && report.Configurations == 0 {
		// The verification never started (no legitimacy predicate, start
		// construction failed): a setup error, not a refuted property.
		return verr
	}
	fmt.Fprintf(out, "explored  : %d configurations, %d transitions, depth %d, complete=%v\n",
		report.Configurations, report.Transitions, report.Depth, report.Complete)
	fmt.Fprintf(out, "coverage  : %d terminal, %d legitimate, %d selection-capped, %d distinct local states\n",
		report.TerminalConfigurations, report.LegitimateConfigurations, report.CappedSelections, report.DistinctLocalStates)
	switch {
	case verr != nil:
		fmt.Fprintf(out, "verdict   : REFUTED — %v\n", verr)
		return fmt.Errorf("verification refuted the convergence property")
	case !report.Complete:
		fmt.Fprintln(out, "verdict   : INCOMPLETE — the configuration cap was hit before the reachable space was covered; raise -verify-max-configs")
		return fmt.Errorf("verification incomplete: explored %d configurations", report.Configurations)
	default:
		fmt.Fprintln(out, "verdict   : CERTIFIED — every execution from the explored starts reaches the legitimate set")
		return nil
	}
}

// printRegistries renders the scenario registries, one section per axis.
func printRegistries(out io.Writer) {
	section := func(title string, names []string, describe func(string) string) {
		fmt.Fprintf(out, "%s:\n", title)
		for _, name := range names {
			fmt.Fprintf(out, "  %-32s %s\n", name, describe(name))
		}
		fmt.Fprintln(out)
	}
	section("algorithms", scenario.Algorithms(), func(name string) string {
		e, _ := scenario.AlgorithmByName(name)
		return e.Description
	})
	section("topologies", scenario.Topologies(), func(name string) string {
		e, _ := scenario.TopologyByName(name)
		return e.Description
	})
	section("daemons", scenario.Daemons(), func(name string) string {
		e, _ := scenario.DaemonByName(name)
		return e.Description
	})
	section("fault models", scenario.FaultModels(), func(name string) string {
		e, _ := scenario.FaultByName(name)
		return e.Description
	})
	section("churn schedules", scenario.ChurnSchedules(), func(name string) string {
		e, _ := scenario.ChurnByName(name)
		return e.Description
	})
}

func simulate(sp scenario.Spec, showTrace bool, format string, profileSteps int, out io.Writer) error {
	run, err := sp.Resolve()
	if err != nil {
		return err
	}

	var opts []sim.Option
	var recorder *trace.Recorder
	if showTrace {
		recorder = trace.NewRecorder(run.Alg)
		opts = append(opts, sim.WithStepHook(recorder.Hook()))
	}
	var prof *obs.PhaseProfiler
	if profileSteps > 0 {
		prof = obs.NewPhaseProfiler(profileSteps)
		opts = append(opts, sim.WithProfiler(prof))
	}
	observer := run.Observer()
	if observer != nil {
		opts = append(opts, sim.WithStepHook(observer.Hook()))
	}
	// Topology stats are captured before the run: churn events replace the
	// network's graph, and the header should describe the starting topology.
	g := run.Net.Graph()
	topoLine := topologyLine(run.Spec.Topology, g)
	res := run.Execute(opts...)

	fmt.Fprintf(out, "algorithm : %s\n", run.Alg.Name())
	fmt.Fprintf(out, "topology  : %s\n", topoLine)
	fmt.Fprintf(out, "daemon    : %s, scenario: %s, seed: %d\n", run.Daemon.Name(), run.Spec.Fault, run.Spec.Seed)
	if run.Churn != nil {
		fmt.Fprintf(out, "churn     : %s, events at steps %v\n", run.Churn.Schedule(), run.Churn.Times())
	}
	fmt.Fprintf(out, "steps     : %d, moves: %d, rounds: %d, terminated: %v\n", res.Steps, res.Moves, res.Rounds, res.Terminated)
	if run.Legitimate != nil {
		if res.LegitimateReached {
			fmt.Fprintf(out, "stabilized: after %d moves / %d rounds / %d steps\n",
				res.StabilizationMoves, res.StabilizationRounds, res.StabilizationSteps)
		} else {
			fmt.Fprintln(out, "stabilized: NOT reached within the step bound")
		}
	}
	if len(res.Events) > 0 {
		recovered := 0
		for _, ev := range res.Events {
			if ev.Recovered {
				recovered++
			}
		}
		fmt.Fprintf(out, "recovery  : %d/%d events recovered, availability %.3f\n",
			recovered, len(res.Events), res.Availability())
		fmt.Fprintf(out, "  %-3s %-20s %-7s %-6s %-10s %-10s %-10s %s\n",
			"#", "event", "step", "legit", "rec-steps", "rec-moves", "rec-rounds", "recovered")
		for i, ev := range res.Events {
			steps, moves, rounds := "-", "-", "-"
			if ev.Recovered {
				steps = fmt.Sprintf("%d", ev.RecoverySteps)
				moves = fmt.Sprintf("%d", ev.RecoveryMoves)
				rounds = fmt.Sprintf("%d", ev.RecoveryRounds)
			}
			fmt.Fprintf(out, "  %-3d %-20s %-7d %-6v %-10s %-10s %-10s %v\n",
				i, ev.Label, ev.Step, ev.LegitimateBefore, steps, moves, rounds, ev.Recovered)
		}
	}
	if observer != nil {
		fmt.Fprintf(out, "reset     : segments=%d, max SDR moves/process=%d (bound %d), alive-root creations=%d\n",
			observer.Segments(), observer.MaxSDRMoves(), core.MaxSDRMovesPerProcess(run.Net.N()), observer.AliveRootViolations())
	}
	for _, line := range run.Report(res).Lines() {
		fmt.Fprintln(out, line)
	}
	if prof != nil {
		printProfile(out, prof.Profile())
	}

	if showTrace {
		switch format {
		case "text":
			return recorder.WriteText(out, res)
		case "csv":
			return recorder.WriteCSV(out)
		case "json":
			return recorder.WriteJSON(out, res)
		default:
			return fmt.Errorf("unknown trace format %q", format)
		}
	}
	fmt.Fprint(out, trace.Summary(res))
	return nil
}

// printProfile renders the sampled phase timings as a trailing report block:
// one line per global phase with its mean per sampled step and share of the
// step wall time, per-shard breakdowns indented beneath, and a closing line
// whose coverage shows how much of the wall the named phases account for.
func printProfile(out io.Writer, p obs.EngineProfile) {
	if p.SampledSteps == 0 {
		fmt.Fprintln(out, "profile   : no steps sampled")
		return
	}
	fmt.Fprintf(out, "profile   : %d of %d steps sampled (every %d)\n", p.SampledSteps, p.Steps, p.Every)
	n := float64(p.SampledSteps)
	for _, ph := range p.Phases {
		fmt.Fprintf(out, "  %-18s %10.1fµs/step  %5.1f%%\n",
			ph.Phase, float64(ph.Total.Nanoseconds())/n/1e3, 100*float64(ph.Total)/float64(p.StepWall))
	}
	for _, sb := range p.Shards {
		for _, ph := range sb.Phases {
			fmt.Fprintf(out, "  %-18s %10.1fµs/step  %5.1f%%\n",
				fmt.Sprintf("%s[shard %d]", ph.Phase, sb.Shard),
				float64(ph.Total.Nanoseconds())/n/1e3, 100*float64(ph.Total)/float64(p.StepWall))
		}
	}
	fmt.Fprintf(out, "  %-18s %10.1fµs/step  cover %.0f%%\n",
		"step_wall", float64(p.StepWall.Nanoseconds())/n/1e3, 100*p.Coverage())
}
