package bench

import (
	"context"
	"fmt"

	"sdr/internal/core"
	"sdr/internal/scenario"
	"sdr/internal/sim"
)

// The experiment runners describe their workloads declaratively: each
// experiment is a scenario.Sweep (which algorithm × topology × daemon ×
// fault grid to run) plus the per-experiment metrics extracted from the
// results. All construction goes through the scenario registries; nothing in
// this package calls an algorithm, topology or daemon constructor directly.

// StandardTopologies returns the topology registry names used across the
// sweep experiments: bounded-degree families of increasing irregularity.
func StandardTopologies() []string {
	return []string{"ring", "tree", "grid", "random"}
}

// DenseTopologies returns the topology registry names whose degree grows
// with n, used by the alliance experiments (where Δ and m drive the bounds).
func DenseTopologies() []string {
	return []string{"complete", "random-dense", "random-sparse"}
}

// defaultDaemons returns the daemon registry names used by the sweep
// experiments: the synchronous daemon (fast, deterministic) and a
// distributed random daemon (samples the unfair daemon).
func defaultDaemons() []string {
	return []string{"synchronous", "distributed-random"}
}

// sweepFor assembles the scenario.Sweep of one experiment: the standard
// topology/daemon grid over the configured sizes, with the experiment's
// algorithms, fault models and trial-seed stride.
func sweepFor(cfg Config, stride int64, algorithms, topologies, daemons, faultModels []string) scenario.Sweep {
	return scenario.Sweep{
		Algorithms: algorithms,
		Topologies: topologies,
		Daemons:    daemons,
		Faults:     faultModels,
		Sizes:      cfg.Sizes,
		Trials:     cfg.Trials,
		Seed:       cfg.Seed,
		SeedStride: stride,
		MaxSteps:   cfg.MaxSteps,
	}
}

// measurement is one measured execution of a resolved scenario.
type measurement struct {
	run      *scenario.Run
	result   sim.Result
	observer *core.Observer
}

// runObserved resolves and executes the spec with a primed reset observer
// hooked into the run (compositions only; the observer is nil otherwise).
// Non-terminating algorithms stop at their first legitimate configuration —
// for compositions this loses no SDR activity, since the normal set is
// closed and SDR rules are disabled in it. A spec the registries reject (a
// ring of two nodes, say) is an error.
func runObserved(sp scenario.Spec) (measurement, error) {
	run, err := sp.Resolve()
	if err != nil {
		return measurement{}, err
	}
	observer := run.Observer()
	var opts []sim.Option
	if observer != nil {
		opts = append(opts, sim.WithStepHook(observer.Hook()))
	}
	res := run.Execute(opts...)
	return measurement{run: run, result: res, observer: observer}, nil
}

// runPlain resolves and executes the spec without instrumentation.
func runPlain(sp scenario.Spec) (measurement, error) {
	run, err := sp.Resolve()
	if err != nil {
		return measurement{}, err
	}
	return measurement{run: run, result: run.Execute()}, nil
}

// mapTrials runs fn over the (cell × trial) grid of cfg like MapGrid and
// returns the results, or the first error in (cell, trial) order.
func mapTrials[T any](cfg Config, cells int, fn func(cell, trial int) (T, error)) ([][]T, error) {
	type result struct {
		v   T
		err error
	}
	grid := MapGrid(context.TODO(), cfg.Parallel, cells, cfg.Trials, func(c, tr int) result {
		v, err := fn(c, tr)
		return result{v, err}
	})
	out := make([][]T, cells)
	for c, row := range grid {
		out[c] = make([]T, len(row))
		for tr, r := range row {
			if r.err != nil {
				return nil, r.err
			}
			out[c][tr] = r.v
		}
	}
	return out, nil
}

// itoa formats an integer cell.
func itoa(v int) string { return fmt.Sprintf("%d", v) }

// ftoa formats a float cell with one decimal.
func ftoa(v float64) string { return fmt.Sprintf("%.1f", v) }

// boolCell formats a yes/no cell.
func boolCell(ok bool) string {
	if ok {
		return "yes"
	}
	return "no"
}
