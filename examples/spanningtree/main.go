// Silent self-stabilizing BFS spanning tree via the cooperative reset.
//
// The paper presents SDR as a general method: composing any locally checkable
// input algorithm with the reset yields a self-stabilizing solution, and for
// static problems the result is silent (Section 1.1). This example exercises
// that claim on a third instantiation beyond the two the paper evaluates: a
// breadth-first spanning tree construction, described as the scenario Spec
// "bfstree" + "random-all". The composition B ∘ SDR runs from an arbitrarily
// corrupted configuration; it terminates (silence) in a configuration whose
// distances and parent pointers form the exact BFS tree.
//
// Run with:
//
//	go run ./examples/spanningtree [n] [seed]
package main

import (
	"fmt"
	"os"
	"strconv"

	"sdr/internal/core"
	"sdr/internal/scenario"
	"sdr/internal/sim"
	"sdr/internal/spantree"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "spanningtree example:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	n, seed := 18, int64(5)
	if len(args) > 0 {
		v, err := strconv.Atoi(args[0])
		if err != nil || v < 3 {
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

	run, err := scenario.Spec{
		Algorithm: "bfstree",
		Topology:  "random",
		N:         n,
		Daemon:    "distributed-random",
		Fault:     "random-all", // distances, parent pointers and reset machinery all corrupted
		Seed:      seed,
	}.Resolve()
	if err != nil {
		return err
	}
	g := run.Net.Graph()
	fmt.Printf("network: random connected graph, n=%d m=%d D=%d, root=%d\n\n", g.N(), g.M(), g.Diameter(), run.Spec.Params.Root)
	fmt.Println("corrupted distances:", spantree.Distances(run.Start))
	fmt.Println("corrupted parents  :", spantree.Parents(run.Start))

	observer := run.Observer()
	res := run.Execute(sim.WithStepHook(observer.Hook()))
	if !res.Terminated {
		return fmt.Errorf("the composition did not terminate — silence is violated")
	}

	fmt.Printf("\nterminated after %d moves and %d rounds (silent)\n", res.Moves, res.Rounds)
	fmt.Printf("reset structure: %d segments, max %d SDR moves per process (bound %d), %d alive-root creations\n",
		observer.Segments(), observer.MaxSDRMoves(), core.MaxSDRMovesPerProcess(g.N()), observer.AliveRootViolations())

	fmt.Println("\nfinal distances:", spantree.Distances(res.Final))
	fmt.Println("final parents  :", spantree.Parents(res.Final))
	if report := run.Report(res); !report.OK {
		return fmt.Errorf("the terminal configuration is not the exact BFS tree")
	}
	fmt.Println("\nthe terminal configuration is the exact BFS spanning tree of the network")
	return nil
}
