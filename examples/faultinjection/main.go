// Mid-run fault injection and topology churn.
//
// The example resolves one churn scenario — U ∘ SDR on a torus, perturbed
// while it runs by a seeded churn schedule (see internal/churn) — executes
// it, and prints the per-event recovery table: for every injected event, the
// steps/moves/rounds the cooperative reset needed to bring the system back
// to a legitimate configuration, plus the overall availability (the fraction
// of steps spent legitimate despite the ongoing perturbation). The reset
// observer runs alongside to show the per-process SDR work staying within
// the 3n+3 bound of Corollary 4 across all recoveries.
//
// Run with:
//
//	go run ./examples/faultinjection [churn-schedule] [seed]
//
// where churn-schedule is a registered name (sdrsim -list) or a grammar form
// like "periodic:events=4,every=150,kinds=corrupt-fraction+edge-drop".
package main

import (
	"fmt"
	"os"
	"strconv"

	"sdr/internal/core"
	"sdr/internal/scenario"
	"sdr/internal/sim"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "faultinjection example:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	churn, seed := "poisson-mixed", int64(3)
	if len(args) > 0 {
		churn = args[0]
	}
	if len(args) > 1 {
		v, err := strconv.ParseInt(args[1], 10, 64)
		if err != nil {
			return fmt.Errorf("invalid seed %q", args[1])
		}
		seed = v
	}

	run, err := scenario.Spec{
		Algorithm: "unison",
		Topology:  "torus",
		N:         20, // rounded up to the 5×5 torus
		Daemon:    "distributed-random",
		Fault:     "random-all",
		Churn:     churn,
		Seed:      seed,
	}.Resolve()
	if err != nil {
		return err
	}
	n := run.Net.N()
	fmt.Printf("network: 5×5 torus (n=%d, D=%d); algorithm %s\n", n, run.Net.Graph().Diameter(), run.Alg.Name())
	fmt.Printf("churn  : %s, events at steps %v\n", run.Churn.Schedule(), run.Churn.Times())
	fmt.Printf("per-process SDR move bound (Corollary 4): %d\n\n", core.MaxSDRMovesPerProcess(n))

	observer := run.Observer()
	res := run.Execute(sim.WithStepHook(observer.Hook()))
	if !res.LegitimateReached {
		return fmt.Errorf("the system never stabilized within the step bound")
	}
	fmt.Printf("first stabilization: %d moves / %d rounds / %d steps\n\n",
		res.StabilizationMoves, res.StabilizationRounds, res.StabilizationSteps)

	fmt.Printf("%-3s %-20s %-7s %-12s %-10s %-10s %-10s\n",
		"#", "event", "step", "legit-before", "rec-steps", "rec-moves", "rec-rounds")
	recovered := 0
	for i, ev := range res.Events {
		steps, moves, rounds := "-", "-", "-"
		if ev.Recovered {
			recovered++
			steps = strconv.Itoa(ev.RecoverySteps)
			moves = strconv.Itoa(ev.RecoveryMoves)
			rounds = strconv.Itoa(ev.RecoveryRounds)
		}
		fmt.Printf("%-3d %-20s %-7d %-12v %-10s %-10s %-10s\n",
			i, ev.Label, ev.Step, ev.LegitimateBefore, steps, moves, rounds)
	}
	fmt.Printf("\nrecovered from %d of %d events; availability %.3f over %d steps\n",
		recovered, len(res.Events), res.Availability(), res.Steps)
	fmt.Printf("reset work (worst fault-free stretch): segments=%d, max SDR moves/process=%d (bound %d), alive-root creations=%d\n",
		observer.Segments(), observer.MaxSDRMoves(), core.MaxSDRMovesPerProcess(n), observer.AliveRootViolations())
	if recovered < len(res.Events) {
		return fmt.Errorf("%d event(s) were not recovered from within the step bound", len(res.Events)-recovered)
	}
	fmt.Println("\nthe clocks are synchronised again despite the mid-run churn:")
	fmt.Println(res.Final)
	return nil
}
