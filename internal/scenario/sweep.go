package scenario

import (
	"fmt"
)

// TrialSeedStride separates the derived seeds of consecutive trials of a
// sweep cell. A large prime keeps the per-trial RNG streams disjoint from
// the small seed offsets users typically pick.
const TrialSeedStride = 1_000_003

// Sweep is a declarative cross-product of Spec axes. Expanding it yields one
// cell per (algorithm × topology × size × daemon × fault) combination, in
// that nesting order; each cell runs Trials seeded executions. The
// (cell × trial) grid is what the internal/bench parallel worker pool
// consumes.
type Sweep struct {
	// Algorithms, Topologies, Daemons and Faults name registry entries.
	// Empty Faults defaults to {"none"}.
	Algorithms []string
	Topologies []string
	Daemons    []string
	Faults     []string
	// Churns names churn schedules (registry entries or grammar forms); the
	// empty slice defaults to {""} (no mid-run perturbation).
	Churns []string
	// Sizes is the sweep of network sizes n.
	Sizes []int
	// Trials is the number of seeded repetitions per cell (≤ 0 means 1).
	Trials int
	// Seed is the base seed; trial t of every cell derives seed
	// Seed + t·SeedStride.
	Seed int64
	// SeedStride separates the seeds of consecutive trials; 0 means
	// TrialSeedStride.
	SeedStride int64
	// MaxSteps bounds each execution; 0 means sim.DefaultMaxSteps.
	MaxSteps int
	// Shards is the engine shard count shared by every cell (see
	// Spec.Shards); 0 or 1 means the sequential engine. It is a shared knob,
	// not a sweep axis: the shard count changes how fast a run executes,
	// never what it computes.
	Shards int
	// Params carries the entry-specific knobs shared by every cell.
	Params Params
}

// Cell is one point of an expanded sweep.
type Cell struct {
	Algorithm string
	Topology  string
	N         int
	Daemon    string
	Fault     string
	Churn     string
}

// Cells expands the cross-product in table order: algorithms outermost, then
// topologies, sizes, daemons, faults and churn schedules.
func (s Sweep) Cells() []Cell {
	faultAxis := s.Faults
	if len(faultAxis) == 0 {
		faultAxis = []string{"none"}
	}
	churnAxis := s.Churns
	if len(churnAxis) == 0 {
		churnAxis = []string{""}
	}
	var cells []Cell
	for _, alg := range s.Algorithms {
		for _, top := range s.Topologies {
			for _, n := range s.Sizes {
				for _, d := range s.Daemons {
					for _, f := range faultAxis {
						for _, c := range churnAxis {
							cells = append(cells, Cell{Algorithm: alg, Topology: top, N: n, Daemon: d, Fault: f, Churn: c})
						}
					}
				}
			}
		}
	}
	return cells
}

// Trial returns the Spec of the given cell's trial-th repetition.
func (s Sweep) Trial(c Cell, trial int) Spec {
	stride := s.SeedStride
	if stride == 0 {
		stride = TrialSeedStride
	}
	return Spec{
		Algorithm: c.Algorithm,
		Topology:  c.Topology,
		N:         c.N,
		Daemon:    c.Daemon,
		Fault:     c.Fault,
		Churn:     c.Churn,
		Seed:      s.Seed + int64(trial)*stride,
		MaxSteps:  s.MaxSteps,
		Shards:    s.Shards,
		Params:    s.Params,
	}
}

// Validate checks that every axis resolves to a registry entry and that the
// sweep is non-empty, without building any topology.
func (s Sweep) Validate() error {
	if len(s.Algorithms) == 0 || len(s.Topologies) == 0 || len(s.Daemons) == 0 || len(s.Sizes) == 0 {
		return fmt.Errorf("scenario: sweep needs at least one algorithm, topology, daemon and size")
	}
	for _, name := range s.Algorithms {
		if _, err := AlgorithmByName(name); err != nil {
			return err
		}
	}
	for _, name := range s.Topologies {
		if _, err := TopologyByName(name); err != nil {
			return err
		}
	}
	for _, name := range s.Daemons {
		if _, err := DaemonByName(name); err != nil {
			return err
		}
	}
	for _, name := range s.Faults {
		if _, err := FaultByName(name); err != nil {
			return err
		}
	}
	for _, name := range s.Churns {
		if name == "" {
			continue
		}
		if _, err := ResolveChurn(name); err != nil {
			return err
		}
	}
	return nil
}
