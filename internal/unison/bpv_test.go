package unison

import (
	"math/rand"
	"strings"
	"testing"

	"sdr/internal/graph"
	"sdr/internal/sim"
)

func TestNewBPVValidation(t *testing.T) {
	for _, c := range []struct{ k, alpha int }{{1, 3}, {5, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewBPV(%d,%d) must panic", c.k, c.alpha)
				}
			}()
			NewBPV(c.k, c.alpha)
		}()
	}
	b := NewBPV(6, 2)
	if b.K() != 6 || b.Alpha() != 2 {
		t.Errorf("accessors returned K=%d α=%d", b.K(), b.Alpha())
	}
	if !strings.Contains(b.Name(), "BPV") {
		t.Errorf("name %q should mention BPV", b.Name())
	}
}

func TestParametersFor(t *testing.T) {
	g := graph.Ring(6)
	k, alpha := ParametersFor(g)
	if k != 7 {
		t.Errorf("K = %d, want n+1 = 7", k)
	}
	if alpha != 4 {
		t.Errorf("α = %d, want T_G - 2 = 4 for a 6-ring", alpha)
	}
	// Trees have no cycles; α falls back to 1.
	_, alphaTree := ParametersFor(graph.Path(5))
	if alphaTree != 1 {
		t.Errorf("α = %d for a path, want the minimum 1", alphaTree)
	}
}

func TestBPVStateBasics(t *testing.T) {
	s := BPVState{R: -2}
	if !s.Equal(BPVState{R: -2}) || s.Equal(BPVState{R: 0}) || s.Equal(ClockState{C: -2}) {
		t.Error("BPVState equality must be by value and type")
	}
	if s.String() != "r=-2" {
		t.Errorf("String = %q, want r=-2", s.String())
	}
}

func TestBPVEnumerateStates(t *testing.T) {
	b := NewBPV(5, 3)
	states := sim.StateSpace(b, 0, sim.NewNetwork(graph.Ring(4)))
	if len(states) != 8 {
		t.Fatalf("enumerated %d states, want α+K = 8", len(states))
	}
	if states[0].(BPVState).R != -3 || states[len(states)-1].(BPVState).R != 4 {
		t.Errorf("state range is [%v, %v], want [-3, 4]", states[0], states[len(states)-1])
	}
}

func TestBPVFromInitBehavesAsUnison(t *testing.T) {
	// From the all-zero configuration the baseline is a correct unison: the
	// legitimate predicate always holds and clocks keep incrementing.
	g := graph.Ring(6)
	b := NewBPVFor(g)
	net := sim.NewNetwork(g)
	legit := sim.AllProcesses(net, b.LegitimatePredicate())

	violations := 0
	ticks := make([]int, g.N())
	hook := func(info sim.StepInfo) {
		if !legit(info.After) {
			violations++
		}
		for i, u := range info.Activated {
			if b.Rules()[info.Rules[i]].Name == RuleBPVNormal {
				ticks[u]++
			}
		}
	}
	daemon := sim.NewDistributedRandomDaemon(rand.New(rand.NewSource(9)), 0.5)
	res := sim.NewEngine(net, b, daemon).Run(sim.InitialConfiguration(b, net),
		sim.WithMaxSteps(60*g.N()),
		sim.WithStepHook(hook),
	)
	if violations > 0 {
		t.Errorf("the baseline violated its legitimate predicate %d times from γ_init", violations)
	}
	if res.Terminated {
		t.Error("the baseline must not terminate from γ_init")
	}
	for u, c := range ticks {
		if c == 0 {
			t.Errorf("process %d never executed the normal action", u)
		}
	}
}

func TestBPVStabilizesFromRandomConfigurations(t *testing.T) {
	topologies := []*graph.Graph{graph.Ring(6), graph.RandomConnected(8, 0.3, rand.New(rand.NewSource(12)))}
	for _, g := range topologies {
		b := NewBPVFor(g)
		net := sim.NewNetwork(g)
		legit := b.LegitimatePredicate()
		for trial := 0; trial < 5; trial++ {
			rng := rand.New(rand.NewSource(int64(trial * 31)))
			start := randomStart(t, b, net, rng)
			res := sim.NewEngine(net, b, sim.NewDistributedRandomDaemon(rng, 0.5)).Run(start,
				sim.WithMaxSteps(400_000),
				sim.WithLegitimate(legit),
				sim.WithStopWhenLegitimate(),
			)
			if !res.LegitimateReached {
				t.Fatalf("n=%d trial %d: the baseline did not stabilize from %s", g.N(), trial, start)
			}
		}
	}
}

func TestBPVLegitimatePredicate(t *testing.T) {
	g := graph.Path(3)
	b := NewBPV(5, 2)
	legit := sim.AllProcesses(sim.NewNetwork(g), b.LegitimatePredicate())
	mk := func(values ...int) *sim.Configuration {
		states := make([]sim.State, len(values))
		for i, v := range values {
			states[i] = BPVState{R: v}
		}
		return sim.NewConfiguration(states)
	}
	if !legit(mk(1, 2, 2)) {
		t.Error("ring values within drift 1 are legitimate")
	}
	if legit(mk(-1, 0, 0)) {
		t.Error("a tail value is not legitimate")
	}
	if legit(mk(0, 2, 2)) {
		t.Error("a drift of 2 is not legitimate")
	}
}

func TestMaxBaselineStabilizationMoves(t *testing.T) {
	if got := MaxBaselineStabilizationMoves(4, 2, 3); got != 2*64+3*16 {
		t.Errorf("MaxBaselineStabilizationMoves(4,2,3) = %d, want %d", got, 2*64+3*16)
	}
}
