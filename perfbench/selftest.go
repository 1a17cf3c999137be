package main

import (
	"errors"
	"fmt"
)

// runSelftest checks the benchmark itself on tiny sizes, one second per
// workload: every workload's untraced and traced runs succeed (run refuses
// a metric list that differs from BENCHMARK.json's, names or units) and
// report no failed operation at the default seed, and a deliberately wrong
// digest turns every operation of the run into a failed one.
func runSelftest() error {
	for _, name := range []string{"campaign-churn", "torus-sharded", "serve-jobs"} {
		cfg := config{seed: defaultSeed, seconds: 1, tiny: true, nproc: 2}
		for _, traced := range []bool{false, true} {
			res, err := run(name, cfg, traced, false)
			if err != nil {
				return fmt.Errorf("%s (trace %v): %w", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				return fmt.Errorf("%s (trace %v): correct=%v attempted=%d failed=%d", name, traced, res.Correct, res.Attempted, res.Failed)
			}
		}
		res, err := run(name, cfg, false, true)
		if err != nil {
			return fmt.Errorf("%s (corrupt digest): %w", name, err)
		}
		if res.Correct || res.Failed != res.Attempted {
			return errors.New(name + ": a wrong digest was not reported as failed operations")
		}
	}
	return nil
}
