package obs

import (
	"fmt"
	"time"
)

// Engine phase names recorded by sim's step loop. A run without sharding
// reports select/execute/guard_eval/account; a run asked for more than one
// shard reports select/execute/merge/boundary_exchange/account globally plus
// per-shard execute and boundary_exchange breakdowns.
const (
	PhaseSelect   = "select"
	PhaseExecute  = "execute"
	PhaseGuard    = "guard_eval"
	PhaseAccount  = "account"
	PhaseMerge    = "merge"
	PhaseBoundary = "boundary_exchange"
)

// PhaseProfiler accumulates per-phase wall time for a sampled subset of
// engine steps: step i is sampled when i ≡ 0 (mod every), so every=1 times
// every step. It belongs to a single run — the engine drives it from the
// step loop's goroutine only (per-shard durations are measured inside the
// shard workers but handed over sequentially after the join) — so it needs
// no locking and costs nothing when not attached.
type PhaseProfiler struct {
	every    int
	steps    int // steps seen by StartStep
	sampled  int // steps that were sampled
	stepWall time.Duration

	order  []string
	totals map[string]time.Duration
	counts map[string]int

	shards []map[string]time.Duration
}

// NewPhaseProfiler returns a profiler sampling every k-th step (k < 1 is
// treated as 1, i.e. every step).
func NewPhaseProfiler(every int) *PhaseProfiler {
	if every < 1 {
		every = 1
	}
	return &PhaseProfiler{
		every:  every,
		totals: make(map[string]time.Duration),
		counts: make(map[string]int),
	}
}

// StartStep registers one engine step and reports whether this step should
// be timed.
func (p *PhaseProfiler) StartStep() bool {
	s := p.steps
	p.steps++
	return s%p.every == 0
}

// Observe adds one timed occurrence of a phase on the current sampled step.
func (p *PhaseProfiler) Observe(phase string, d time.Duration) {
	if _, ok := p.totals[phase]; !ok {
		p.order = append(p.order, phase)
	}
	p.totals[phase] += d
	p.counts[phase]++
}

// ObserveShard adds one timed occurrence of a phase attributed to a single
// shard of the sharded engine.
func (p *PhaseProfiler) ObserveShard(shard int, phase string, d time.Duration) {
	for len(p.shards) <= shard {
		p.shards = append(p.shards, nil)
	}
	if p.shards[shard] == nil {
		p.shards[shard] = make(map[string]time.Duration)
	}
	p.shards[shard][phase] += d
}

// EndStep closes a sampled step, recording its total wall time.
func (p *PhaseProfiler) EndStep(wall time.Duration) {
	p.sampled++
	p.stepWall += wall
}

// PhaseStat is the accumulated time of one phase over all sampled steps.
type PhaseStat struct {
	Phase string
	Count int
	Total time.Duration
}

// ShardBreakdown is the per-shard share of the parallel phases.
type ShardBreakdown struct {
	Shard  int
	Phases []PhaseStat
}

// EngineProfile is an immutable snapshot of a profiler.
type EngineProfile struct {
	Every        int
	Steps        int
	SampledSteps int
	StepWall     time.Duration // total wall time of the sampled steps
	Phases       []PhaseStat   // in first-observation order
	Shards       []ShardBreakdown
}

// Profile snapshots the accumulated timings.
func (p *PhaseProfiler) Profile() EngineProfile {
	ep := EngineProfile{
		Every:        p.every,
		Steps:        p.steps,
		SampledSteps: p.sampled,
		StepWall:     p.stepWall,
	}
	for _, name := range p.order {
		ep.Phases = append(ep.Phases, PhaseStat{Phase: name, Count: p.counts[name], Total: p.totals[name]})
	}
	for i, m := range p.shards {
		if m == nil {
			continue
		}
		sb := ShardBreakdown{Shard: i}
		// Report shard phases in the global observation order so rows line
		// up across shards.
		for _, name := range p.order {
			if d, ok := m[name]; ok {
				sb.Phases = append(sb.Phases, PhaseStat{Phase: name, Count: p.counts[name], Total: d})
			}
		}
		ep.Shards = append(ep.Shards, sb)
	}
	return ep
}

// PhaseTotal is the sum of all global phase totals; on a healthy profile it
// accounts for nearly all of StepWall (the difference is loop glue and the
// timing calls themselves).
func (p EngineProfile) PhaseTotal() time.Duration {
	var sum time.Duration
	for _, ph := range p.Phases {
		sum += ph.Total
	}
	return sum
}

// Coverage is PhaseTotal/StepWall, the fraction of sampled step wall time
// attributed to a named phase (0 with no samples).
func (p EngineProfile) Coverage() float64 {
	if p.StepWall <= 0 {
		return 0
	}
	return float64(p.PhaseTotal()) / float64(p.StepWall)
}

// Metrics renders the profile as flat metric values for the campaign layer:
// phase_<name>_ns is the mean nanoseconds per sampled step for each global
// phase, and phase_step_ns the mean sampled-step wall time. Empty with no
// sampled steps.
func (p EngineProfile) Metrics() map[string]float64 {
	if p.SampledSteps == 0 {
		return nil
	}
	m := make(map[string]float64, len(p.Phases)+1)
	n := float64(p.SampledSteps)
	for _, ph := range p.Phases {
		m[fmt.Sprintf("phase_%s_ns", ph.Phase)] = float64(ph.Total.Nanoseconds()) / n
	}
	m["phase_step_ns"] = float64(p.StepWall.Nanoseconds()) / n
	return m
}
