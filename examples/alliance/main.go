// 1-minimal (f,g)-alliances on an identified network, with recovery.
//
// The example computes, with FGA ∘ SDR, several of the alliance variants the
// paper lists in Section 6.1 (dominating set, global offensive / defensive /
// powerful alliances) on one random identified network. Each variant is its
// own entry in the scenario algorithm registry, so the sweep is a loop over
// registry names. After convergence a transient fault corrupts half of the
// processes, and the composition recovers a (possibly different) 1-minimal
// alliance within the proven bounds.
//
// Run with:
//
//	go run ./examples/alliance [n] [seed]
package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strconv"

	"sdr/internal/alliance"
	"sdr/internal/faults"
	"sdr/internal/scenario"
	"sdr/internal/sim"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "alliance example:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	n, seed := 16, int64(11)
	if len(args) > 0 {
		v, err := strconv.Atoi(args[0])
		if err != nil || v < 4 {
			return fmt.Errorf("invalid size %q", args[0])
		}
		n = v
	}
	if len(args) > 1 {
		v, err := strconv.ParseInt(args[1], 10, 64)
		if err != nil {
			return fmt.Errorf("invalid seed %q", args[1])
		}
		seed = v
	}

	variants := []string{
		"dominating-set",
		"global-offensive-alliance",
		"global-defensive-alliance",
		"global-powerful-alliance",
	}
	for _, name := range variants {
		if err := demo(name, n, seed); err != nil {
			return err
		}
	}
	return nil
}

func demo(name string, n int, seed int64) error {
	fmt.Printf("— %s —\n", name)
	// Phase 1: converge from the pre-defined initial configuration (every
	// process in the alliance).
	run, err := scenario.Spec{
		Algorithm: name,
		Topology:  "random",
		N:         n,
		Daemon:    "distributed-random",
		Fault:     "none",
		Seed:      seed,
		Params:    scenario.Params{EdgeProb: 0.4},
	}.Resolve()
	if errors.Is(err, scenario.ErrUnsatisfiable) {
		fmt.Printf("  skipped: %v\n\n", err)
		return nil
	}
	if err != nil {
		return err
	}
	g := run.Net.Graph()
	res := run.Execute()
	members := alliance.Members(res.Final)
	fmt.Printf("  network   : n=%d m=%d Δ=%d\n", g.N(), g.M(), g.MaxDegree())
	fmt.Printf("  converged : %v (size %d) in %d moves / %d rounds\n",
		members, len(members), res.Moves, res.Rounds)
	fmt.Printf("  1-minimal : %v (move bound %d, round bound %d)\n",
		run.Report(res).OK,
		alliance.MaxStabilizationMoves(g.N(), g.M(), g.MaxDegree()),
		alliance.MaxStabilizationRounds(g.N()))

	// Phase 2: a transient fault corrupts half of the processes (application
	// variables and reset machinery alike); the composition recovers. The
	// corruption reuses the resolved run's engine on the converged state.
	corrupted, err := faults.CorruptFraction(run.Alg, run.Net, res.Final, 0.5, rand.New(rand.NewSource(seed+1)))
	if err != nil {
		return err
	}
	res2 := run.Engine.Run(corrupted, sim.WithMaxSteps(run.Spec.MaxSteps))
	recovered := alliance.Members(res2.Final)
	fmt.Printf("  after fault: recovered %v (size %d) in %d moves; 1-minimal: %v\n\n",
		recovered, len(recovered), res2.Moves, run.Report(res2).OK)
	if !res2.Terminated {
		return fmt.Errorf("alliance: %s did not re-converge after the fault", name)
	}
	return nil
}
