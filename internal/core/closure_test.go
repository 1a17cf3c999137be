package core

import (
	"math/rand"
	"testing"

	"sdr/internal/graph"
	"sdr/internal/sim"
)

// These tests reproduce the closure lemmas of Section 4.2 as step invariants
// over sampled executions of the composition: once the predicate holds at a
// process, it keeps holding in every later configuration.
//
//	Lemma 6   : ¬P_R1(u) and ¬P_R2(u) are closed by I ∘ SDR.
//	Theorem 2 : P_Correct(u) ∨ P_RB(u) is closed by I ∘ SDR.
//	Corollary 2: ¬P_Up(u) is closed by I ∘ SDR.
//	Remark 4  : the alive-root set never grows (checked in theorems_test.go).

// perProcessClosure runs executions from random configurations and checks
// that, for every process, once pred holds it holds forever.
func perProcessClosure(t *testing.T, name string, pred func(Resettable, sim.View) bool) {
	t.Helper()
	inner := newTestInner(2)
	comp := Compose(inner)
	g := graph.RandomConnected(7, 0.4, rand.New(rand.NewSource(41)))
	net := sim.NewNetwork(g)
	states := sim.StateSpace(comp, 0, net)
	rng := rand.New(rand.NewSource(42))

	for trial := 0; trial < 20; trial++ {
		cfgStates := make([]sim.State, net.N())
		for u := range cfgStates {
			cfgStates[u] = states[rng.Intn(len(states))]
		}
		start := sim.NewConfiguration(cfgStates)

		// A predicate is closed when it never goes from true to false across a
		// step; prev tracks its value per process in the previous configuration.
		violated := ""
		prev := make([]bool, net.N())
		for u := 0; u < net.N(); u++ {
			prev[u] = pred(inner, net.View(start, u))
		}
		hook := func(info sim.StepInfo) {
			for u := 0; u < net.N(); u++ {
				now := pred(inner, net.View(info.After, u))
				if prev[u] && !now && violated == "" {
					violated = name + " lost at process " + itoa(u) + " at step " + itoa(info.Step)
				}
				prev[u] = now
			}
		}

		daemon := sim.NewDistributedRandomDaemon(rand.New(rand.NewSource(int64(trial*3+1))), 0.5)
		sim.NewEngine(net, comp, daemon).Run(start, sim.WithMaxSteps(20_000), sim.WithStepHook(hook))
		if violated != "" {
			t.Fatalf("trial %d: %s", trial, violated)
		}
	}
}

func TestClosureNotPR1(t *testing.T) {
	perProcessClosure(t, "¬P_R1", func(inner Resettable, v sim.View) bool {
		return !PR1(inner, v)
	})
}

func TestClosureNotPR2(t *testing.T) {
	perProcessClosure(t, "¬P_R2", func(inner Resettable, v sim.View) bool {
		return !PR2(inner, v)
	})
}

func TestClosureCorrectOrRB(t *testing.T) {
	perProcessClosure(t, "P_Correct ∨ P_RB", func(inner Resettable, v sim.View) bool {
		return PCorrect(inner, v) || PRB(v)
	})
}

func TestClosureNotPUp(t *testing.T) {
	perProcessClosure(t, "¬P_Up", func(inner Resettable, v sim.View) bool {
		return !PUp(inner, v)
	})
}

func TestClosureNotAliveRoot(t *testing.T) {
	// Theorem 3 phrased per process: ¬(alive root) is closed.
	perProcessClosure(t, "¬alive-root", func(inner Resettable, v sim.View) bool {
		return !IsAliveRoot(inner, v)
	})
}

func TestAttractorChainP1ToP4(t *testing.T) {
	// The attractor chain of Definition 6: P1 (no P_Up), then P2 (plus no
	// P_RB), then P3 (plus no RB status), then P4 (plus no RF status) are
	// reached in this order and never left. We check reachability + closure
	// on sampled executions.
	inner := newTestInner(2)
	comp := Compose(inner)
	g := graph.Ring(6)
	net := sim.NewNetwork(g)
	states := sim.StateSpace(comp, 0, net)
	rng := rand.New(rand.NewSource(77))

	predP1 := func(c *sim.Configuration) bool {
		for u := 0; u < net.N(); u++ {
			if PUp(inner, net.View(c, u)) {
				return false
			}
		}
		return true
	}
	predP2 := func(c *sim.Configuration) bool {
		if !predP1(c) {
			return false
		}
		for u := 0; u < net.N(); u++ {
			if PRB(net.View(c, u)) {
				return false
			}
		}
		return true
	}
	predP3 := func(c *sim.Configuration) bool {
		if !predP2(c) {
			return false
		}
		for u := 0; u < net.N(); u++ {
			if SDRPart(c.State(u)).St == StatusRB {
				return false
			}
		}
		return true
	}
	predP4 := func(c *sim.Configuration) bool {
		if !predP3(c) {
			return false
		}
		for u := 0; u < net.N(); u++ {
			if SDRPart(c.State(u)).St == StatusRF {
				return false
			}
		}
		return true
	}
	preds := []struct {
		name string
		pred sim.Predicate
	}{
		{"P1", predP1}, {"P2", predP2}, {"P3", predP3}, {"P4", predP4},
	}

	for trial := 0; trial < 15; trial++ {
		cfgStates := make([]sim.State, net.N())
		for u := range cfgStates {
			cfgStates[u] = states[rng.Intn(len(states))]
		}
		start := sim.NewConfiguration(cfgStates)

		reached := make([]bool, len(preds))
		lost := make([]bool, len(preds))
		check := func(c *sim.Configuration) {
			for i, p := range preds {
				now := p.pred(c)
				if reached[i] && !now {
					lost[i] = true
				}
				if now {
					reached[i] = true
				}
			}
		}
		check(start)
		daemon := sim.NewDistributedRandomDaemon(rand.New(rand.NewSource(int64(trial))), 0.5)
		res := sim.NewEngine(net, comp, daemon).Run(start,
			sim.WithMaxSteps(50_000),
			sim.WithStepHook(func(info sim.StepInfo) { check(info.After) }),
		)
		if !res.Terminated {
			t.Fatalf("trial %d: the composition of a terminating inner algorithm must terminate", trial)
		}
		for i, p := range preds {
			if !reached[i] {
				t.Errorf("trial %d: attractor %s never reached", trial, p.name)
			}
			if lost[i] {
				t.Errorf("trial %d: attractor %s was left after being reached", trial, p.name)
			}
		}
		// P4 is exactly the normal/terminal set for a terminating inner
		// algorithm: the final configuration must satisfy it.
		if !predP4(res.Final) {
			t.Errorf("trial %d: terminal configuration does not satisfy P4", trial)
		}
	}
}
