// Clock synchronisation on a random network: U ∘ SDR versus the
// Boulinier-Petit-Villain baseline.
//
// The example reproduces, on one concrete workload, the comparison of
// Section 5.3 of the paper: both self-stabilizing unison algorithms are
// described as scenario Specs differing only in the Algorithm axis, so they
// resolve to the same random network (same seed → same topology) and the
// same kind of corrupted start. The paper's claim is that U ∘ SDR has the
// better move complexity: O(D·n²) against O(D·n³ + α·n²).
//
// Run with:
//
//	go run ./examples/unison [n] [seed]
package main

import (
	"fmt"
	"os"
	"strconv"

	"sdr/internal/scenario"
	"sdr/internal/sim"
	"sdr/internal/unison"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "unison example:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	n, seed := 20, int64(7)
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

	spec := scenario.Spec{
		Algorithm: "unison",
		Topology:  "random",
		N:         n,
		Daemon:    "distributed-random",
		Fault:     "random-all",
		Seed:      seed,
		Params:    scenario.Params{EdgeProb: 0.2},
	}

	// --- U ∘ SDR -----------------------------------------------------------
	sdrRun, err := spec.Resolve()
	if err != nil {
		return err
	}
	g := sdrRun.Net.Graph()
	fmt.Printf("network: random connected graph, n=%d m=%d Δ=%d D=%d\n\n", g.N(), g.M(), g.MaxDegree(), g.Diameter())
	sdrRes := sdrRun.Execute()
	fmt.Println("U ∘ SDR (this paper)")
	report(sdrRes)
	fmt.Printf("  proven bound: %d moves (O(D·n²), Theorem 6), %d rounds (Theorem 7)\n\n",
		unison.MaxStabilizationMoves(g.N(), g.Diameter()), unison.MaxStabilizationRounds(g.N()))

	// --- BPV baseline: the same Spec with one axis changed ------------------
	bpvSpec := spec
	bpvSpec.Algorithm = "bpv"
	bpvRun, err := bpvSpec.Resolve()
	if err != nil {
		return err
	}
	bpvRes := bpvRun.Execute()
	bpv := bpvRun.Alg.(*unison.BPV)
	fmt.Printf("BPV baseline (K=%d, α=%d)\n", bpv.K(), bpv.Alpha())
	report(bpvRes)
	fmt.Printf("  reported complexity: O(D·n³ + α·n²) moves\n\n")

	if sdrRes.LegitimateReached && bpvRes.LegitimateReached && bpvRes.StabilizationMoves > 0 {
		ratio := float64(bpvRes.StabilizationMoves) / float64(max(sdrRes.StabilizationMoves, 1))
		fmt.Printf("summary: on this workload the BPV baseline needed %.1f× the moves of U ∘ SDR\n", ratio)
	}
	return nil
}

func report(res sim.Result) {
	if !res.LegitimateReached {
		fmt.Println("  did NOT stabilize within the step bound")
		return
	}
	fmt.Printf("  stabilized after %d moves, %d rounds, %d steps\n",
		res.StabilizationMoves, res.StabilizationRounds, res.StabilizationSteps)
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
