package faults

import (
	"math/rand"
	"testing"

	"sdr/internal/core"
	"sdr/internal/graph"
	"sdr/internal/sim"
	"sdr/internal/unison"
)

func testSetup(t *testing.T) (*sim.Network, *unison.Unison, *core.Composed) {
	t.Helper()
	g := graph.Ring(8)
	u := unison.New(unison.DefaultPeriod(g.N()))
	return sim.NewNetwork(g), u, core.Compose(u)
}

func TestRandomConfigurationCoversStateSpace(t *testing.T) {
	net, _, comp := testSetup(t)
	rng := rand.New(rand.NewSource(1))
	seenNonClean, seenNonZeroClock := false, false
	for trial := 0; trial < 50; trial++ {
		cfg, err := RandomConfiguration(comp, net, rng)
		if err != nil {
			t.Fatal(err)
		}
		if cfg.N() != net.N() {
			t.Fatalf("configuration has %d states, want %d", cfg.N(), net.N())
		}
		for u := 0; u < cfg.N(); u++ {
			cs := cfg.State(u).(core.ComposedState)
			if cs.SDR.St != core.StatusC {
				seenNonClean = true
			}
			if cs.Inner.(unison.ClockState).C != 0 {
				seenNonZeroClock = true
			}
		}
	}
	if !seenNonClean || !seenNonZeroClock {
		t.Error("random configurations should cover both SDR and inner variables")
	}
}

func TestRandomConfigurationRequiresEnumerable(t *testing.T) {
	net, _, _ := testSetup(t)
	rng := rand.New(rand.NewSource(1))
	if _, err := RandomConfiguration(nonEnumerable{}, net, rng); err == nil {
		t.Error("RandomConfiguration must fail for non-enumerable algorithms")
	}
	base := sim.InitialConfiguration(nonEnumerable{}, net)
	if _, err := CorruptFraction(nonEnumerable{}, net, base, 0.5, rng); err == nil {
		t.Error("CorruptFraction must fail for non-enumerable algorithms")
	}
}

// nonEnumerable is an algorithm without a state space.
type nonEnumerable struct{}

func (nonEnumerable) Name() string                             { return "opaque" }
func (nonEnumerable) Rules() []sim.Rule                        { return nil }
func (nonEnumerable) InitialState(int, *sim.Network) sim.State { return unison.ClockState{} }

func TestCorruptFraction(t *testing.T) {
	net, _, comp := testSetup(t)
	base := sim.InitialConfiguration(comp, net)
	rng := rand.New(rand.NewSource(2))

	// Fraction 0: nothing changes.
	same, err := CorruptFraction(comp, net, base, 0, rng)
	if err != nil {
		t.Fatal(err)
	}
	if !same.Equal(base) {
		t.Error("fraction 0 must leave the configuration unchanged")
	}
	// The base configuration itself must never be mutated.
	if _, err := CorruptFraction(comp, net, base, 1, rng); err != nil {
		t.Fatal(err)
	}
	if !base.Equal(sim.InitialConfiguration(comp, net)) {
		t.Error("CorruptFraction must not modify the base configuration")
	}
	// Out-of-range fractions are clamped rather than rejected.
	clamped, err := CorruptFraction(comp, net, base, 7.5, rng)
	if err != nil {
		t.Fatal(err)
	}
	if clamped.N() != base.N() {
		t.Error("clamped corruption must keep the configuration size")
	}
}

func TestCorruptedInnerKeepsSDRClean(t *testing.T) {
	net, u, comp := testSetup(t)
	base := sim.InitialConfiguration(comp, net)
	rng := rand.New(rand.NewSource(4))
	cfg, err := CorruptedInner(u, net, base, 1.0, rng)
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < net.N(); p++ {
		cs := cfg.State(p).(core.ComposedState)
		if cs.SDR.St != core.StatusC {
			t.Errorf("process %d: SDR state %v should stay clean under inner-only corruption", p, cs.SDR)
		}
	}
}

func TestFakeResetWaveKeepsInnerStates(t *testing.T) {
	net, _, comp := testSetup(t)
	base := sim.InitialConfiguration(comp, net)
	rng := rand.New(rand.NewSource(5))
	cfg := FakeResetWave(net, base, 1.0, net.N(), rng)
	changedStatus := 0
	for p := 0; p < net.N(); p++ {
		cs := cfg.State(p).(core.ComposedState)
		if !cs.Inner.Equal(base.State(p).(core.ComposedState).Inner) {
			t.Errorf("process %d: the inner state must be untouched by a fake wave", p)
		}
		if cs.SDR.St != core.StatusC {
			changedStatus++
			if cs.SDR.St != core.StatusRB && cs.SDR.St != core.StatusRF {
				t.Errorf("process %d: unexpected status %v", p, cs.SDR.St)
			}
			if cs.SDR.D < 0 || cs.SDR.D > net.N() {
				t.Errorf("process %d: distance %d out of the requested range", p, cs.SDR.D)
			}
		}
	}
	if changedStatus == 0 {
		t.Error("a full-fraction fake wave should corrupt at least one status")
	}
	// Negative maximum distances are clamped to 0.
	clamped := FakeResetWave(net, base, 1.0, -3, rng)
	for p := 0; p < net.N(); p++ {
		if d := clamped.State(p).(core.ComposedState).SDR.D; d != 0 {
			t.Errorf("process %d: distance %d, want 0 with a clamped maximum", p, d)
		}
	}
}
