// Package churn defines seeded mid-run perturbation schedules: sequences of
// fault and topology events applied to a running execution at step
// boundaries, through the sim.Injector hook of the engine.
//
// The paper's claim is recovery: an SDR-composed algorithm re-stabilizes
// after *any* transient fault. Initial-configuration corruption (package
// faults) exercises a single fault before time zero; a churn schedule
// exercises repeated faults and node/edge churn while the system runs, and
// the engine reports per-event recovery costs (sim.EventRecovery) plus the
// fraction of steps spent legitimate.
//
// A Schedule is deterministic by construction: generating it twice from the
// same seed yields the same event times, kinds and amplitudes, so churn
// experiments are exactly as reproducible as static ones.
package churn

import (
	"fmt"
	"math/rand"

	"sdr/internal/core"
	"sdr/internal/sim"
)

// Kind names one perturbation event type.
type Kind string

// The event vocabulary.
const (
	// CorruptFraction redraws each process state uniformly from the
	// algorithm's state space with probability Fraction (requires
	// sim.Enumerable).
	CorruptFraction Kind = "corrupt-fraction"
	// CorruptProcesses redraws the states of Count targeted processes
	// (requires sim.Enumerable).
	CorruptProcesses Kind = "corrupt-processes"
	// FakeResetWave puts each process, with probability Fraction, into an
	// arbitrary phase of a non-existent reset (composed algorithms only).
	FakeResetWave Kind = "fake-reset-wave"
	// NodeCrash models a crash-reboot of Count targeted processes: each
	// rejoins immediately with its pre-defined initial state (amnesia); the
	// process set itself is fixed for the run.
	NodeCrash Kind = "node-crash"
	// EdgeDrop removes up to Count edges whose removal keeps the network
	// connected (candidates that would disconnect it are skipped).
	EdgeDrop Kind = "edge-drop"
	// EdgeAdd inserts up to Count edges between currently non-adjacent
	// process pairs.
	EdgeAdd Kind = "edge-add"
	// Partition cuts the network in two halves by removing every edge
	// across a random BFS-grown bisection; the cut is remembered until the
	// next Heal. A second Partition before a Heal is a no-op.
	Partition Kind = "partition"
	// Heal re-inserts the edges removed by the last Partition (those still
	// absent); a Heal without an open partition is a no-op.
	Heal Kind = "heal"
)

// Kinds returns every event kind, in declaration order.
func Kinds() []Kind {
	return []Kind{CorruptFraction, CorruptProcesses, FakeResetWave,
		NodeCrash, EdgeDrop, EdgeAdd, Partition, Heal}
}

// valid reports whether k is a known event kind.
func (k Kind) valid() bool {
	for _, known := range Kinds() {
		if k == known {
			return true
		}
	}
	return false
}

// needsEnumerable reports whether events of kind k draw random states from
// the algorithm's enumerated state space.
func (k Kind) needsEnumerable() bool {
	return k == CorruptFraction || k == CorruptProcesses
}

// composedOnly reports whether events of kind k corrupt the reset machinery
// and hence only apply to compositions I ∘ SDR.
func (k Kind) composedOnly() bool { return k == FakeResetWave }

// Pattern names the arrival process of a schedule.
type Pattern string

// The schedule patterns.
const (
	// Periodic fires events at Start, Start+Every, Start+2·Every, ...
	Periodic Pattern = "periodic"
	// Poisson fires events with exponentially distributed inter-arrival
	// times of mean Every steps (each gap at least one step), starting
	// after Start.
	Poisson Pattern = "poisson"
	// BurstPattern fires bursts of Burst events at consecutive step
	// boundaries; bursts start at Start, Start+Every, ...
	BurstPattern Pattern = "burst"
	// Adversarial fires periodically like Periodic but targets the worst
	// node: process-targeted events (corrupt-processes, node-crash) hit the
	// closed neighbourhood of the current maximum-degree process instead of
	// random processes.
	Adversarial Pattern = "adversarial"
)

// Schedule describes a seeded sequence of perturbation events. The zero
// value is not valid; fill Pattern and rely on withDefaults for the knobs.
type Schedule struct {
	// Pattern is the arrival process.
	Pattern Pattern
	// Events is the total number of events (default 5).
	Events int
	// Every is the period (Periodic, Adversarial), the mean inter-arrival
	// time (Poisson) or the gap between burst starts (BurstPattern), in
	// steps (default 200).
	Every int
	// Start is the first step boundary at which an event may fire
	// (default Every).
	Start int
	// Burst is the number of events per burst, BurstPattern only
	// (default 3).
	Burst int
	// EventKinds cycle across the events of the schedule (default
	// {CorruptFraction}).
	EventKinds []Kind
	// Fraction is the per-process corruption probability of CorruptFraction
	// and FakeResetWave events (default 0.3).
	Fraction float64
	// Count is the number of processes or edges targeted by
	// CorruptProcesses, NodeCrash, EdgeDrop and EdgeAdd events (default 1).
	Count int
}

// withDefaults fills the zero knobs.
func (s Schedule) withDefaults() Schedule {
	if s.Events == 0 {
		s.Events = 5
	}
	if s.Every == 0 {
		s.Every = 200
	}
	if s.Start == 0 {
		s.Start = s.Every
	}
	if s.Burst == 0 {
		s.Burst = 3
	}
	if len(s.EventKinds) == 0 {
		s.EventKinds = []Kind{CorruptFraction}
	}
	if s.Fraction == 0 {
		s.Fraction = 0.3
	}
	if s.Count == 0 {
		s.Count = 1
	}
	return s
}

// Validate reports whether the schedule (after defaults) is well-formed.
func (s Schedule) Validate() error {
	s = s.withDefaults()
	switch s.Pattern {
	case Periodic, Poisson, BurstPattern, Adversarial:
	default:
		return fmt.Errorf("churn: unknown schedule pattern %q", s.Pattern)
	}
	if s.Events < 1 {
		return fmt.Errorf("churn: schedule needs at least one event, got %d", s.Events)
	}
	if s.Every < 1 {
		return fmt.Errorf("churn: event period must be at least one step, got %d", s.Every)
	}
	if s.Start < 0 {
		return fmt.Errorf("churn: negative start step %d", s.Start)
	}
	if s.Burst < 1 {
		return fmt.Errorf("churn: burst size must be at least one event, got %d", s.Burst)
	}
	if s.Fraction < 0 || s.Fraction > 1 {
		return fmt.Errorf("churn: corruption fraction %g outside [0,1]", s.Fraction)
	}
	if s.Count < 1 {
		return fmt.Errorf("churn: event target count must be at least one, got %d", s.Count)
	}
	for _, k := range s.EventKinds {
		if !k.valid() {
			return fmt.Errorf("churn: unknown event kind %q", k)
		}
	}
	return nil
}

// times generates the sorted fire steps of the schedule's events; len(times)
// equals Events. Poisson draws consume the rng; the other patterns are
// arithmetic.
func (s Schedule) times(rng *rand.Rand) []int {
	times := make([]int, 0, s.Events)
	switch s.Pattern {
	case Poisson:
		cur := s.Start
		for i := 0; i < s.Events; i++ {
			cur += 1 + int(rng.ExpFloat64()*float64(s.Every))
			times = append(times, cur)
		}
	case BurstPattern:
		for i := 0; len(times) < s.Events; i++ {
			start := s.Start + i*s.Every
			for j := 0; j < s.Burst && len(times) < s.Events; j++ {
				times = append(times, start+j)
			}
		}
	default: // Periodic, Adversarial
		for i := 0; i < s.Events; i++ {
			times = append(times, s.Start+i*s.Every)
		}
	}
	return times
}

// requirements returns an error when the schedule's event kinds need
// capabilities the algorithm does not have: an enumerated state space for
// corruption kinds, a composition I ∘ SDR for reset-machinery kinds. The
// error mirrors the fault-model registry's phrasing.
func (s Schedule) requirements(alg sim.Algorithm, inner core.Resettable, net *sim.Network) error {
	for _, k := range s.EventKinds {
		if k.needsEnumerable() {
			if e, ok := alg.(sim.Enumerable); !ok || e.StateCount(0, net) == 0 {
				return fmt.Errorf("churn: event %q requires algorithm %s to enumerate its states", k, alg.Name())
			}
		}
		if k.composedOnly() && inner == nil {
			return fmt.Errorf("churn: event %q requires a composed algorithm, %s is not one", k, alg.Name())
		}
	}
	return nil
}
