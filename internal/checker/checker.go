// Package checker provides the verification machinery used to validate the
// self-stabilization properties of the reproduced algorithms:
//
//   - closure checks: a predicate (e.g. the legitimate set) stays true along
//     executions that start inside it;
//   - bounded-exhaustive exploration of the reachable configuration space of
//     small networks under *every* daemon choice, which verifies convergence
//     (no cycle of illegitimate configurations, no illegitimate deadlock) in
//     the strongest possible way short of a formal proof.
package checker

import (
	"fmt"

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
