// Package sim implements the computational model of the paper: the locally
// shared memory model with composite atomicity, driven by a daemon.
//
// A distributed algorithm is a set of guarded rules per process. In a step,
// the daemon selects a non-empty subset of the enabled processes; every
// selected process atomically executes one of its enabled rules, all reading
// the configuration at the beginning of the step and writing the new
// configuration at the end. Executions are maximal sequences of steps.
//
// Time is measured in moves (rule executions) and in rounds (the
// neutralization-based definition of Dolev, Israeli and Moran used by the
// paper). Both are tracked by the Engine.
package sim

import (
	"fmt"
	"slices"
	"strings"
)

// State is the local state of a single process: the values of all its
// locally shared variables. States are immutable values: Equal compares by
// value, and nothing modifies a state once it is built, so there is no copy
// operation and configurations may share one box. The engine's buffers share
// the boxes of the start configuration and with Result.Final, injections
// install their states as they are, and composed rule actions hand the same
// box to every process that moves to an equal state.
type State interface {
	// Equal reports whether the other state has the same variable values.
	Equal(other State) bool
	// String renders the state compactly for traces and debugging.
	String() string
}

// Configuration is a vector of process states, indexed by process.
type Configuration struct {
	states []State
}

// NewConfiguration builds a configuration from the given per-process states.
// The slice is copied; the states themselves are not cloned.
func NewConfiguration(states []State) *Configuration {
	c := &Configuration{states: make([]State, len(states))}
	copy(c.states, states)
	return c
}

// N returns the number of processes.
func (c *Configuration) N() int { return len(c.states) }

// State returns the state of process u.
func (c *Configuration) State(u int) State { return c.states[u] }

// SetState replaces the state of process u.
func (c *Configuration) SetState(u int, s State) { c.states[u] = s }

// Clone returns a copy of the configuration. It shares the immutable states
// and copies only the slice, so SetState on either leaves the other as it
// was.
func (c *Configuration) Clone() *Configuration {
	return &Configuration{states: slices.Clone(c.states)}
}

// Equal reports whether both configurations assign equal states to every
// process.
func (c *Configuration) Equal(other *Configuration) bool {
	if other == nil || len(c.states) != len(other.states) {
		return false
	}
	for i, s := range c.states {
		if !s.Equal(other.states[i]) {
			return false
		}
	}
	return true
}

// String renders the configuration as "[s0 | s1 | ...]".
func (c *Configuration) String() string {
	parts := make([]string, len(c.states))
	for i, s := range c.states {
		parts[i] = s.String()
	}
	return "[" + strings.Join(parts, " | ") + "]"
}

// Predicate is a predicate over configurations, e.g. a legitimacy predicate.
type Predicate func(*Configuration) bool

// ProcessPredicate is a predicate over the closed neighbourhood of one
// process, evaluated through its View.
type ProcessPredicate func(View) bool

// AllProcesses lifts a per-process predicate to a configuration predicate
// with respect to a fixed network: it holds when the per-process predicate
// holds at every process.
func AllProcesses(net *Network, p ProcessPredicate) Predicate {
	return func(c *Configuration) bool {
		for u := 0; u < net.N(); u++ {
			if !p(net.View(c, u)) {
				return false
			}
		}
		return true
	}
}

func checkProcessIndex(u, n int) {
	if u < 0 || u >= n {
		panic(fmt.Sprintf("sim: process index %d out of range [0,%d)", u, n))
	}
}
