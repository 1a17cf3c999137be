// Package scenario is the declarative experiment-description layer of the
// reproduction: named registries for algorithms, topologies, daemons and
// fault models, plus a Spec struct that resolves a (algorithm × topology ×
// daemon × fault × seed) description into a ready-to-run sim.Engine.
//
// The package separates the *model* (the algorithms and the simulation
// engine) from the *experiment configuration* (which combination runs, from
// which corrupted start, under which scheduler), the same move DEVS-style
// simulation frameworks make. Every consumer of the repository — the
// cmd/sdrsim and cmd/sdrbench CLIs, the internal/bench experiment runners
// and the runnable examples — constructs its runs through a Spec, so adding
// a new scenario is a registry entry instead of edits in five call sites.
//
// A Spec names registry entries; Resolve builds the concrete run:
//
//	run, err := scenario.Spec{
//	    Algorithm: "unison",
//	    Topology:  "ring",
//	    N:         16,
//	    Daemon:    "distributed-random",
//	    Fault:     "random-all",
//	    Seed:      1,
//	}.Resolve()
//	res := run.Execute()
//
// Sweep expands cross-products of Spec axes into the (cell × trial) grids
// consumed by the internal/bench parallel worker pool.
package scenario

import (
	"errors"
	"fmt"
	"math/rand"

	"sdr/internal/churn"
	"sdr/internal/core"
	"sdr/internal/sim"
)

// ErrUnknown reports a Spec field that names no registry entry.
var ErrUnknown = errors.New("scenario: unknown name")

// ErrUnsatisfiable reports a Spec whose algorithm cannot run on the resolved
// topology (e.g. an (f,g)-alliance requirement exceeding a node degree).
// Sweeps treat it as "skip this cell" rather than a hard failure.
var ErrUnsatisfiable = errors.New("scenario: spec unsatisfiable on this topology")

// Params carries the numeric knobs of Spec that individual registry entries
// interpret; unset (zero) fields take entry-specific defaults.
type Params struct {
	// K is the unison clock period; 0 means the paper's default n+1.
	K int
	// AllianceSpec names the (f,g)-alliance instance used by the generic
	// "alliance" and "alliance-standalone" entries; "" means dominating-set.
	AllianceSpec string
	// Root is the root process of the BFS spanning tree algorithms.
	Root int
	// EdgeProb is the edge probability of the random topologies; 0 means the
	// family default (0.25 for "random").
	EdgeProb float64
	// MinDegree is the degree floor of the random-regular topology; 0 means 3.
	MinDegree int
	// Legs is the number of pendant nodes per spine node of the caterpillar
	// topology; 0 means 1. An explicit value must be below n: every spine
	// node carries all its legs, so Resolve rejects Legs ≥ n.
	Legs int
}

// Spec is a declarative description of one run: which algorithm on which
// topology, under which daemon, from which corrupted start. All axis fields
// name registry entries; Resolve turns the description into a ready-to-run
// engine.
type Spec struct {
	// Algorithm names an algorithm registry entry (see Algorithms).
	Algorithm string
	// Topology names a topology registry entry (see Topologies).
	Topology string
	// N is the requested network size; structured families round it as
	// documented by their registry entry.
	N int
	// Daemon names a daemon registry entry (see Daemons).
	Daemon string
	// Fault names a fault-model registry entry (see Faults); "" means "none"
	// (start from the algorithm's pre-defined initial configuration).
	Fault string
	// Churn names a churn-schedule registry entry, or is a schedule in the
	// churn grammar ("pattern:key=value,..."); "" means no mid-run
	// perturbation. See ChurnSchedules and internal/churn.
	Churn string
	// Seed derives all randomness of the run: the topology, the corrupted
	// start and the daemon are all seeded from it, so a Spec is fully
	// reproducible.
	Seed int64
	// MaxSteps bounds the execution; 0 means sim.DefaultMaxSteps.
	MaxSteps int
	// Shards is the number of engine shards the run executes on (see
	// sim.WithShards); 0 or 1 means the sequential engine. Runs are
	// bit-identical across shard counts under every daemon.
	Shards int
	// Params carries the entry-specific numeric knobs.
	Params Params
}

// withDefaults fills the zero axis fields.
func (s Spec) withDefaults() Spec {
	if s.Fault == "" {
		s.Fault = "none"
	}
	if s.MaxSteps <= 0 {
		s.MaxSteps = sim.DefaultMaxSteps
	}
	return s
}

// Run is a resolved Spec: the concrete network, algorithm, daemon and
// starting configuration, assembled into an engine ready to execute.
type Run struct {
	// Spec is the resolved description (with defaults filled in).
	Spec Spec
	// Entry is the algorithm registry entry the run was built from.
	Entry AlgorithmEntry
	// Net is the network the algorithm runs on.
	Net *sim.Network
	// Alg is the built algorithm.
	Alg sim.Algorithm
	// Inner is the inner Resettable when Alg is a composition I ∘ SDR,
	// nil otherwise.
	Inner core.Resettable
	// Legitimate is the per-process legitimacy predicate used to measure
	// stabilization (a configuration is legitimate when it holds at every
	// process), nil when the entry defines none.
	Legitimate sim.ProcessPredicate
	// Terminating reports whether executions of Alg terminate (silent
	// algorithms); non-terminating runs stop at the first legitimate
	// configuration instead.
	Terminating bool
	// Daemon is the scheduling adversary.
	Daemon sim.Daemon
	// Start is the (possibly corrupted) starting configuration.
	Start *sim.Configuration
	// Churn is the resolved mid-run perturbation injector, nil when the
	// Spec requests none. Injectors are single-use: re-executing the run
	// requires re-resolving the Spec.
	Churn *churn.Injector
	// Engine is the assembled engine.
	Engine *sim.Engine
}

// Resolve builds the run a Spec describes. All randomness derives from
// Spec.Seed: the topology and the fault injection consume one seeded RNG in
// that order, and the daemon gets its own RNG seeded with the same value, so
// equal Specs resolve to identical runs.
//
// The graph and algorithm constructors panic on sizes and params outside
// their domain (a ring with n < 3, a unison period K < 2, a BFS root outside
// the network). A Spec is request input, so Resolve is the one boundary that
// turns those panics into errors carrying the constructor's message.
func (s Spec) Resolve() (run *Run, err error) {
	defer func() {
		if r := recover(); r != nil {
			run, err = nil, fmt.Errorf("scenario: %v", r)
		}
	}()
	s = s.withDefaults()
	entry, err := AlgorithmByName(s.Algorithm)
	if err != nil {
		return nil, err
	}
	topo, err := TopologyByName(s.Topology)
	if err != nil {
		return nil, err
	}
	daemonEntry, err := DaemonByName(s.Daemon)
	if err != nil {
		return nil, err
	}
	fault, err := FaultByName(s.Fault)
	if err != nil {
		return nil, err
	}

	rng := rand.New(rand.NewSource(s.Seed))
	g := topo.Build(s.N, s.Params, rng)
	net := sim.NewNetwork(g)
	asm, err := entry.Build(g, net, s.Params)
	if err != nil {
		return nil, err
	}
	if fault.ComposedOnly && asm.Inner == nil {
		return nil, fmt.Errorf("scenario: fault %q requires a composed algorithm, %q is not one", s.Fault, s.Algorithm)
	}
	start, err := fault.Build(asm.Algorithm, asm.Inner, net, rng)
	if err != nil {
		return nil, fmt.Errorf("scenario: fault %q: %w", s.Fault, err)
	}
	var injector *churn.Injector
	if s.Churn != "" {
		sched, err := ResolveChurn(s.Churn)
		if err != nil {
			return nil, err
		}
		// The injector continues the topology/fault rng stream: schedule
		// times and event amplitudes are part of the same seeded derivation,
		// so equal Specs resolve to bit-identical perturbed runs.
		injector, err = churn.NewInjector(sched, asm.Algorithm, asm.Inner, net, rng)
		if err != nil {
			return nil, err
		}
	}
	daemon := daemonEntry.New(s.Seed)
	return &Run{
		Spec:        s,
		Entry:       entry,
		Net:         net,
		Alg:         asm.Algorithm,
		Inner:       asm.Inner,
		Legitimate:  asm.Legitimate,
		Terminating: asm.Terminating,
		Daemon:      daemon,
		Start:       start,
		Churn:       injector,
		Engine:      sim.NewEngine(net, asm.Algorithm, daemon),
	}, nil
}

// Options assembles the engine options a run executes under: the step bound,
// the legitimacy predicate when the entry defines one, the churn injector
// when the Spec requests one, and — for non-terminating algorithms —
// stopping at the first legitimate configuration (for churn runs the engine
// defers that stop until the schedule is exhausted and the system has
// recovered). extra options (hooks, a profiler) are appended.
func (r *Run) Options(extra ...sim.Option) []sim.Option {
	opts := []sim.Option{sim.WithMaxSteps(r.Spec.MaxSteps)}
	if r.Legitimate != nil {
		opts = append(opts, sim.WithLegitimate(r.Legitimate))
		if !r.Terminating {
			opts = append(opts, sim.WithStopWhenLegitimate())
		}
	}
	if r.Churn != nil {
		opts = append(opts, sim.WithInjector(r.Churn))
	}
	if r.Spec.Shards > 1 {
		opts = append(opts, sim.WithShards(r.Spec.Shards))
	}
	return append(opts, extra...)
}

// Execute runs the engine from the resolved start under Options.
func (r *Run) Execute(extra ...sim.Option) sim.Result {
	return r.Engine.Run(r.Start, r.Options(extra...)...)
}

// Observer returns a reset observer primed with the starting configuration,
// or nil when the algorithm is not a composition. Pass its Hook to Execute
// to track segments, per-process SDR moves and alive-root creations.
func (r *Run) Observer() *core.Observer {
	if r.Inner == nil {
		return nil
	}
	o := core.NewObserver(r.Inner, r.Net)
	o.Prime(r.Start)
	return o
}

// Report decides the algorithm-specific outcome of a finished run: whether
// the computed output satisfies the entry's checker and the run met its goal
// (termination or stabilization). It formats nothing; Report.Lines does.
func (r *Run) Report(res sim.Result) Report {
	if r.Entry.Report == nil {
		return Report{OK: true}
	}
	return r.Entry.Report(r, res)
}

// Report is the algorithm-specific outcome of a run.
type Report struct {
	// OK is the correctness verdict: the output satisfies the algorithm's
	// specification (and the run stabilized/terminated as required).
	OK bool
	// render formats the outcome from the values the check computed; nil
	// renders nothing.
	render func() []string
}

// Lines formats the outcome for human-readable output: the computed output
// (alliance members, tree distances, clock values) and its validity.
func (rep Report) Lines() []string {
	if rep.render == nil {
		return nil
	}
	return rep.render()
}
