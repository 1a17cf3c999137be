// Quickstart: self-stabilizing unison on a ring, through the declarative
// scenario API.
//
// The whole experiment is one scenario.Spec: the algorithm (U ∘ SDR, the
// composition the paper's cooperative reset makes self-stabilizing), the
// topology, the daemon and the fault model are registry names, and Resolve
// assembles the ready-to-run engine. Running it shows that the system
// recovers a legitimate clock configuration within the bounds proven in the
// paper (3n rounds, O(D·n²) moves).
//
// Run with:
//
//	go run ./examples/quickstart
//
// Explore the registries with:
//
//	go run ./cmd/sdrsim -list
package main

import (
	"fmt"
	"os"

	"sdr/internal/scenario"
	"sdr/internal/sim"
	"sdr/internal/unison"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}
}

func run() error {
	const n = 12

	// 1. Describe the whole experiment declaratively: every axis names a
	//    registry entry, and the seed makes the run fully reproducible.
	spec := scenario.Spec{
		Algorithm: "unison", // Algorithm U composed with the cooperative reset SDR
		Topology:  "ring",   // an anonymous ring of n processes
		N:         n,
		Daemon:    "distributed-random",
		Fault:     "random-all", // a transient fault corrupted every variable
		Seed:      2024,
	}

	// 2. Resolve the description into a concrete network, algorithm, daemon
	//    and corrupted starting configuration.
	run, err := spec.Resolve()
	if err != nil {
		return err
	}
	fmt.Println("corrupted start:", run.Start)

	// 3. Execute. U ∘ SDR is non-terminating, so the run stops at the first
	//    legitimate (normal) configuration.
	result := run.Execute()
	if !result.LegitimateReached {
		return fmt.Errorf("the system did not stabilize (this should be impossible)")
	}
	fmt.Println("stabilized  :", result.Final)
	fmt.Printf("cost        : %d moves, %d rounds\n", result.StabilizationMoves, result.StabilizationRounds)
	fmt.Printf("paper bounds: ≤ %d moves (Theorem 6), ≤ %d rounds (Theorem 7)\n",
		unison.MaxStabilizationMoves(n, run.Net.Graph().Diameter()), unison.MaxStabilizationRounds(n))

	// 4. After stabilization the clocks keep ticking while never drifting by
	//    more than one increment across an edge (the unison specification).
	u := run.Inner.(*unison.Unison)
	ticker := unison.NewTickCounter(n)
	run.Engine.Run(result.Final,
		sim.WithMaxSteps(40*n),
		sim.WithStepHook(ticker.Hook()),
	)
	fmt.Printf("liveness    : every process ticked at least %d times in the next %d steps\n", ticker.Min(), 40*n)
	fmt.Printf("safety      : maximum clock drift across an edge is %d (allowed: 1)\n",
		unison.MaxDrift(u, run.Net, result.Final))
	return nil
}
