// Package checker provides the verification machinery used to validate the
// self-stabilization properties of the reproduced algorithms:
//
//   - closure checks: a predicate (e.g. the legitimate set) stays true along
//     executions that start inside it;
//   - invariant checks along sampled executions;
//   - bounded-exhaustive exploration of the reachable configuration space of
//     small networks under *every* daemon choice, which verifies convergence
//     (no cycle of illegitimate configurations, no illegitimate deadlock) in
//     the strongest possible way short of a formal proof.
package checker

import (
	"fmt"
	"math/rand"

	"sdr/internal/sim"
)

// CheckClosure verifies that pred is closed along an execution: starting
// from start (which must satisfy pred), it runs the algorithm under the
// daemon for at most maxSteps steps and returns an error if pred is ever
// violated.
func CheckClosure(net *sim.Network, alg sim.Algorithm, daemon sim.Daemon, start *sim.Configuration, pred sim.Predicate, maxSteps int) error {
	if !pred(start) {
		return fmt.Errorf("checker: starting configuration does not satisfy the predicate")
	}
	var violation error
	hook := func(info sim.StepInfo) {
		if violation == nil && !pred(info.After) {
			violation = fmt.Errorf("checker: predicate violated at step %d (activated %v)", info.Step, info.Activated)
		}
	}
	eng := sim.NewEngine(net, alg, daemon)
	eng.Run(start, sim.WithMaxSteps(maxSteps), sim.WithStepHook(hook))
	return violation
}

// CheckInvariant runs the algorithm from start and verifies that inv holds
// in every visited configuration (including the start).
func CheckInvariant(net *sim.Network, alg sim.Algorithm, daemon sim.Daemon, start *sim.Configuration, inv sim.Predicate, maxSteps int) error {
	if !inv(start) {
		return fmt.Errorf("checker: invariant violated in the starting configuration")
	}
	var violation error
	hook := func(info sim.StepInfo) {
		if violation == nil && !inv(info.After) {
			violation = fmt.Errorf("checker: invariant violated at step %d (activated %v)", info.Step, info.Activated)
		}
	}
	eng := sim.NewEngine(net, alg, daemon)
	eng.Run(start, sim.WithMaxSteps(maxSteps), sim.WithStepHook(hook))
	return violation
}

// ConvergenceSample checks convergence from many random starting
// configurations: for each sampled configuration the algorithm must reach a
// configuration where legit holds at every process within maxSteps steps
// under the daemon built by daemonFactory. It returns an error describing
// the first failure.
func ConvergenceSample(
	net *sim.Network,
	alg sim.Algorithm,
	daemonFactory sim.DaemonFactory,
	buildStart func(rng *rand.Rand) *sim.Configuration,
	legit sim.ProcessPredicate,
	trials, maxSteps int,
	seed int64,
) error {
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(seed + int64(trial)))
		start := buildStart(rng)
		daemon := daemonFactory.New(seed + int64(trial))
		eng := sim.NewEngine(net, alg, daemon)
		res := eng.Run(start, sim.WithMaxSteps(maxSteps), sim.WithLegitimate(legit), sim.WithStopWhenLegitimate())
		if !res.LegitimateReached {
			return fmt.Errorf("checker: trial %d under daemon %s did not reach a legitimate configuration within %d steps (start %s)",
				trial, daemon.Name(), maxSteps, start)
		}
	}
	return nil
}
