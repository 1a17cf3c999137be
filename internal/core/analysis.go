package core

import (
	"fmt"

	"sdr/internal/sim"
)

// This file provides the analysis machinery the paper's proofs are built on
// (alive roots, segments) as a runtime observer, so that the theorems can be
// checked on executions: Theorem 3 (no alive-root creation), Remark 5 (at
// most n+1 segments), Theorem 4 (per-segment rule language) and Corollary 4
// (at most 3n+3 SDR moves per process).

// Observer is a sim.StepHook factory that tracks the quantities the paper's
// analysis is phrased in over executions of a composition I ∘ SDR: alive
// roots (Theorem 3), segments (Remark 5), the per-segment rule language
// (Theorem 4) and SDR moves per process (Corollary 4).
//
// It is a local monitor. Alive-rootness reads one closed neighbourhood, so a
// step can change it only at the activated processes and their neighbours:
// the observer keeps one alive bit per process and re-evaluates only those,
// each once per step. A segment ends when the number of alive roots drops
// (Definition 3). Moves are identified by their index in Composed.Rules().
//
// The theorems speak of fault-free executions. An injected event starts a
// new one from the configuration it leaves, so at the first step after an
// event (sim.StepInfo.Events grew) the observer primes itself again from the
// step's Before configuration. Every readout reports the worst fault-free
// stretch of the run; a run without events has exactly one.
type Observer struct {
	net *sim.Network
	// aliveRoot is IsAliveRoot bound to the inner algorithm.
	aliveRoot func(sim.View) bool

	primed bool
	events int // sim.StepInfo.Events at the last priming

	alive      []bool
	aliveCount int
	// stamp[u] == step marks u as re-evaluated in the current step.
	stamp []uint32
	step  uint32

	// The current stretch: segments and alive-root creations so far, SDR
	// moves per process, and per process the Theorem 4 automaton as
	// segment<<2 | phase, where phase 0 is the start of a segment, 1 after
	// rule_C, 2 after rule_RB or rule_R and 3 after rule_RF. A phase written
	// in an earlier segment reads as 0, so ending a segment resets every
	// automaton by incrementing segment.
	segments, violations int
	sdrMoves             []int
	lang                 []uint64
	segment              uint64

	// The worst closed stretch, and the first Theorem 4 violation.
	worstSegments, worstViolations int
	worstSDRMoves                  []int
	languageViolation              string
}

// sdrPhase gives the Theorem 4 phase each SDR rule moves a process to; a rule
// may only move a process to a later phase of its segment.
var sdrPhase = [firstInnerRule]uint64{ruleCIndex: 1, ruleRBIndex: 2, ruleRIndex: 2, ruleRFIndex: 3}

// NewObserver creates an observer for executions of Compose(inner) on net.
func NewObserver(inner Resettable, net *sim.Network) *Observer {
	n := net.N()
	return &Observer{
		net:           net,
		aliveRoot:     func(v sim.View) bool { return IsAliveRoot(inner, v) },
		alive:         make([]bool, n),
		stamp:         make([]uint32, n),
		sdrMoves:      make([]int, n),
		lang:          make([]uint64, n),
		worstSDRMoves: make([]int, n),
	}
}

// Hook returns the sim.StepHook to register with sim.WithStepHook.
func (o *Observer) Hook() sim.StepHook {
	return o.observe
}

// Prime starts a fault-free stretch at configuration c: it evaluates every
// process's alive-rootness and opens the stretch's first segment. Calling it
// is optional: the first observed step primes the observer from its Before
// configuration otherwise.
func (o *Observer) Prime(c *sim.Configuration) {
	if o.primed {
		o.closeStretch()
	}
	o.primed = true
	o.aliveCount = 0
	for u := range o.alive {
		o.alive[u] = o.aliveRoot(o.net.View(c, u))
		if o.alive[u] {
			o.aliveCount++
		}
	}
	o.segments, o.violations = 1, 0
	o.segment++
}

// closeStretch folds the current stretch into the worst one and clears it.
func (o *Observer) closeStretch() {
	o.worstSegments = max(o.worstSegments, o.segments)
	o.worstViolations = max(o.worstViolations, o.violations)
	for u, m := range o.sdrMoves {
		o.worstSDRMoves[u] = max(o.worstSDRMoves[u], m)
		o.sdrMoves[u] = 0
	}
}

func (o *Observer) observe(info sim.StepInfo) {
	if !o.primed || info.Events != o.events {
		o.Prime(info.Before)
		o.events = info.Events
	}
	for i, u := range info.Activated {
		if ri := info.Rules[i]; ri < firstInnerRule {
			o.sdrMoves[u]++
			o.advance(u, ri)
		}
	}

	if o.step++; o.step == 0 {
		clear(o.stamp)
		o.step = 1
	}
	before := o.aliveCount
	for _, u := range info.Activated {
		o.reevaluate(info.After, u)
		for i, deg := 0, o.net.Degree(u); i < deg; i++ {
			o.reevaluate(info.After, o.net.Neighbor(u, i))
		}
	}
	if o.aliveCount < before {
		// A segment ended with this step (Definition 3).
		o.segments++
		o.segment++
	}
}

// reevaluate brings u's alive bit up to date with c, once per step, counting
// u as a created alive root when it becomes one.
func (o *Observer) reevaluate(c *sim.Configuration, u int) {
	if o.stamp[u] == o.step {
		return
	}
	o.stamp[u] = o.step
	now := o.aliveRoot(o.net.View(c, u))
	switch {
	case now && !o.alive[u]:
		o.violations++
		o.aliveCount++
	case !now && o.alive[u]:
		o.aliveCount--
	}
	o.alive[u] = now
}

// advance runs u's Theorem 4 automaton over its SDR move ri: within a
// segment the SDR rules of a process form a word of
// (C + ε)(RB + R + ε)(RF + ε), so each move must reach a later phase.
func (o *Observer) advance(u, ri int) {
	phase := uint64(0)
	if o.lang[u]>>2 == o.segment {
		phase = o.lang[u] & 3
	}
	next := sdrPhase[ri]
	if next <= phase && o.languageViolation == "" {
		o.languageViolation = fmt.Sprintf("process %d executed %s out of the order (C + ε)(RB + R + ε)(RF + ε) within one segment",
			u, sdrRuleNames[ri])
	}
	o.lang[u] = o.segment<<2 | next
}

// AliveRootViolations returns the largest number of alive roots created
// within one fault-free stretch (must be 0 by Theorem 3).
func (o *Observer) AliveRootViolations() int { return max(o.worstViolations, o.violations) }

// Segments returns the largest number of segments (Definition 3) of one
// fault-free stretch observed so far. It is 0 before any step or priming.
func (o *Observer) Segments() int { return max(o.worstSegments, o.segments) }

// MaxSDRMoves returns the largest number of SDR-rule moves any single
// process executed within one fault-free stretch (to compare against the
// 3n+3 bound of Corollary 4).
func (o *Observer) MaxSDRMoves() int {
	best := 0
	for u, m := range o.sdrMoves {
		best = max(best, o.worstSDRMoves[u], m)
	}
	return best
}

// LanguageViolation returns a description of the first Theorem 4 violation
// observed, or the empty string when none occurred.
func (o *Observer) LanguageViolation() string { return o.languageViolation }
