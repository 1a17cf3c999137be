package core

import (
	"fmt"

	"sdr/internal/sim"
)

// This file retains the global-scan observer that predates the local
// monitor of analysis.go: every step it rebuilds the whole alive-root set as
// a map, names every move through the algorithm's rules and keeps each
// process's SDR rules of the current segment as a list of names. It is
// deliberately simple; the differential tests compare Observer's readouts
// against it on static runs (it never re-primes, so it does not model
// injected events).

// ReferenceObserver is the global-scan oracle for Observer.
type ReferenceObserver struct {
	inner Resettable
	net   *sim.Network
	rules []sim.Rule

	aliveRootViolations int
	segments            int
	prevAliveRoots      map[int]bool
	initialized         bool

	sdrMovesPerProcess []int
	// perSegmentRules tracks, per process, the SDR rules executed in the
	// current segment, for the Theorem 4 language check.
	perSegmentRules   [][]string
	languageViolation string
}

// NewReferenceObserver creates the oracle for executions of comp on net.
func NewReferenceObserver(comp *Composed, net *sim.Network) *ReferenceObserver {
	return &ReferenceObserver{
		inner:              comp.Inner(),
		net:                net,
		rules:              comp.Rules(),
		sdrMovesPerProcess: make([]int, net.N()),
		perSegmentRules:    make([][]string, net.N()),
	}
}

// Hook returns the sim.StepHook to register with sim.WithStepHook.
func (o *ReferenceObserver) Hook() sim.StepHook {
	return func(info sim.StepInfo) { o.observe(info) }
}

// Prime records the alive roots of the starting configuration.
func (o *ReferenceObserver) Prime(c *sim.Configuration) {
	o.prevAliveRoots = o.aliveRootSet(c)
	o.segments = 1
	o.initialized = true
}

// AliveRoots returns the sorted list of alive roots in the configuration.
func AliveRoots(inner Resettable, net *sim.Network, c *sim.Configuration) []int {
	var roots []int
	for u := 0; u < net.N(); u++ {
		if IsAliveRoot(inner, net.View(c, u)) {
			roots = append(roots, u)
		}
	}
	return roots
}

func (o *ReferenceObserver) aliveRootSet(c *sim.Configuration) map[int]bool {
	set := make(map[int]bool)
	for _, u := range AliveRoots(o.inner, o.net, c) {
		set[u] = true
	}
	return set
}

func (o *ReferenceObserver) observe(info sim.StepInfo) {
	if !o.initialized {
		o.Prime(info.Before)
	}
	for i, u := range info.Activated {
		rule := o.rules[info.Rules[i]].Name
		if IsSDRRule(rule) {
			o.sdrMovesPerProcess[u]++
			o.perSegmentRules[u] = append(o.perSegmentRules[u], rule)
		}
	}

	after := o.aliveRootSet(info.After)
	for u := range after {
		if !o.prevAliveRoots[u] {
			o.aliveRootViolations++
		}
	}
	if len(after) < len(o.prevAliveRoots) {
		// A segment ended with this step (Definition 3).
		o.checkSegmentLanguage()
		o.segments++
		for u := range o.perSegmentRules {
			o.perSegmentRules[u] = nil
		}
	}
	o.prevAliveRoots = after
}

// checkSegmentLanguage verifies Theorem 4: within a segment, the SDR rules of
// each process form a word of (C + ε)(RB + R + ε)(RF + ε).
func (o *ReferenceObserver) checkSegmentLanguage() {
	for u, rules := range o.perSegmentRules {
		if o.languageViolation == "" && !matchesSegmentLanguage(rules) {
			o.languageViolation = fmt.Sprintf("process %d executed %v within one segment", u, rules)
		}
	}
}

func matchesSegmentLanguage(rules []string) bool {
	i := 0
	if i < len(rules) && rules[i] == RuleC {
		i++
	}
	if i < len(rules) && (rules[i] == RuleRB || rules[i] == RuleR) {
		i++
	}
	if i < len(rules) && rules[i] == RuleRF {
		i++
	}
	return i == len(rules)
}

// AliveRootViolations returns how many times a new alive root appeared.
func (o *ReferenceObserver) AliveRootViolations() int { return o.aliveRootViolations }

// Segments returns the number of segments observed so far.
func (o *ReferenceObserver) Segments() int { return o.segments }

// SDRMovesPerProcess returns, for each process, the largest number of
// SDR-rule moves it executed within one fault-free stretch; the tests
// compare it with the reference observer's count.
func (o *Observer) SDRMovesPerProcess() []int {
	out := make([]int, len(o.sdrMoves))
	for u, m := range o.sdrMoves {
		out[u] = max(o.worstSDRMoves[u], m)
	}
	return out
}

// SDRMovesPerProcess returns the number of SDR-rule moves of each process.
func (o *ReferenceObserver) SDRMovesPerProcess() []int {
	return append([]int(nil), o.sdrMovesPerProcess...)
}

// LanguageViolation returns a description of the first Theorem 4 violation
// observed, or the empty string when none occurred.
func (o *ReferenceObserver) LanguageViolation() string {
	o.checkSegmentLanguage()
	return o.languageViolation
}

// IsSDRRule reports whether the rule name refers to one of the four SDR
// rules (as opposed to a rule of the inner algorithm).
func IsSDRRule(name string) bool {
	return name == RuleRB || name == RuleRF || name == RuleC || name == RuleR
}
