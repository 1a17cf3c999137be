package core

import (
	"testing"

	"sdr/internal/graph"
	"sdr/internal/sim"
)

// pathNetwork returns a 3-process path 0-1-2 and its network.
func pathNetwork(t *testing.T) *sim.Network {
	t.Helper()
	return sim.NewNetwork(graph.Path(3))
}

// composedConfig builds a composed configuration from parallel slices of SDR
// states and inner values.
func composedConfig(t *testing.T, sdr []SDRState, values []int) *sim.Configuration {
	t.Helper()
	if len(sdr) != len(values) {
		t.Fatalf("composedConfig: %d SDR states for %d values", len(sdr), len(values))
	}
	states := make([]sim.State, len(sdr))
	for i := range sdr {
		states[i] = ComposedState{SDR: sdr[i], Inner: testInnerState{V: values[i]}}
	}
	return sim.NewConfiguration(states)
}

func allClean(n int) []SDRState {
	out := make([]SDRState, n)
	for i := range out {
		out[i] = CleanSDRState()
	}
	return out
}

func TestPClean(t *testing.T) {
	net := pathNetwork(t)
	inner := newTestInner(3)
	_ = inner

	clean := composedConfig(t, allClean(3), []int{0, 0, 0})
	for u := 0; u < 3; u++ {
		if !PClean(net.View(clean, u)) {
			t.Errorf("P_Clean(%d) should hold in the all-C configuration", u)
		}
	}

	// Process 1 broadcasting: P_Clean fails at 0, 1 and 2 (1 is in everyone's
	// closed neighbourhood on a path).
	dirty := composedConfig(t, []SDRState{CleanSDRState(), {St: StatusRB, D: 0}, CleanSDRState()}, []int{0, 0, 0})
	for u := 0; u < 3; u++ {
		if PClean(net.View(dirty, u)) {
			t.Errorf("P_Clean(%d) should fail when process 1 has status RB", u)
		}
	}
}

func TestPICorrectAndPCorrect(t *testing.T) {
	net := pathNetwork(t)
	inner := newTestInner(5)

	// Clocks 0-0-2: process 1 and 2 disagree by 2, so both are I-incorrect.
	cfg := composedConfig(t, allClean(3), []int{0, 0, 2})
	if !PICorrect(inner, net.View(cfg, 0)) {
		t.Error("process 0 should be I-correct (its only neighbour is at distance 0)")
	}
	for _, u := range []int{1, 2} {
		if PICorrect(inner, net.View(cfg, u)) {
			t.Errorf("process %d should be I-incorrect", u)
		}
		if PCorrect(inner, net.View(cfg, u)) {
			t.Errorf("P_Correct(%d) should fail: status C and I-incorrect", u)
		}
	}

	// With status RB the implication P_Correct holds vacuously.
	cfg2 := composedConfig(t, []SDRState{CleanSDRState(), {St: StatusRB, D: 0}, CleanSDRState()}, []int{0, 0, 2})
	if !PCorrect(inner, net.View(cfg2, 1)) {
		t.Error("P_Correct must hold at a process whose status is not C")
	}
}

func TestPReset(t *testing.T) {
	net := pathNetwork(t)
	inner := newTestInner(5)
	cfg := composedConfig(t, allClean(3), []int{0, 3, 0})
	if !PReset(inner, net.View(cfg, 0)) || PReset(inner, net.View(cfg, 1)) {
		t.Error("P_reset must hold exactly at processes whose inner state is the reset state")
	}
}

func TestPR1(t *testing.T) {
	net := pathNetwork(t)
	inner := newTestInner(5)

	// Process 0: status C, not reset (v=2), neighbour 1 has status RF → P_R1.
	cfg := composedConfig(t,
		[]SDRState{CleanSDRState(), {St: StatusRF, D: 1}, CleanSDRState()},
		[]int{2, 0, 0})
	if !PR1(inner, net.View(cfg, 0)) {
		t.Error("P_R1(0) should hold: C, not reset, RF neighbour")
	}
	// Same but process 0 is in the reset state → no P_R1.
	cfg2 := composedConfig(t,
		[]SDRState{CleanSDRState(), {St: StatusRF, D: 1}, CleanSDRState()},
		[]int{0, 0, 0})
	if PR1(inner, net.View(cfg2, 0)) {
		t.Error("P_R1(0) should fail when the process is in its reset state")
	}
	// No RF neighbour → no P_R1.
	cfg3 := composedConfig(t, allClean(3), []int{2, 0, 0})
	if PR1(inner, net.View(cfg3, 0)) {
		t.Error("P_R1(0) should fail without an RF neighbour")
	}
}

func TestPRB(t *testing.T) {
	net := pathNetwork(t)
	cfg := composedConfig(t,
		[]SDRState{CleanSDRState(), {St: StatusRB, D: 0}, {St: StatusRF, D: 2}},
		[]int{0, 0, 0})
	if !PRB(net.View(cfg, 0)) {
		t.Error("P_RB(0) should hold: status C with an RB neighbour")
	}
	if PRB(net.View(cfg, 1)) {
		t.Error("P_RB(1) should fail: status is not C")
	}
	if PRB(net.View(cfg, 2)) {
		t.Error("P_RB(2) should fail: status is not C")
	}
}

func TestPRF(t *testing.T) {
	net := pathNetwork(t)
	inner := newTestInner(5)

	// Process 1 (RB@1, reset) with neighbours 0 (RB@0 ≤ 1) and 2 (RF, reset):
	// P_RF(1) holds.
	cfg := composedConfig(t,
		[]SDRState{{St: StatusRB, D: 0}, {St: StatusRB, D: 1}, {St: StatusRF, D: 2}},
		[]int{0, 0, 0})
	if !PRF(inner, net.View(cfg, 1)) {
		t.Error("P_RF(1) should hold")
	}
	// A neighbour with a larger RB distance blocks the feedback.
	cfg2 := composedConfig(t,
		[]SDRState{{St: StatusRB, D: 5}, {St: StatusRB, D: 1}, {St: StatusRF, D: 2}},
		[]int{0, 0, 0})
	if PRF(inner, net.View(cfg2, 1)) {
		t.Error("P_RF(1) should fail: neighbour 0 is broadcasting at a larger distance")
	}
	// A C neighbour blocks the feedback.
	cfg3 := composedConfig(t,
		[]SDRState{CleanSDRState(), {St: StatusRB, D: 1}, {St: StatusRF, D: 2}},
		[]int{0, 0, 0})
	if PRF(inner, net.View(cfg3, 1)) {
		t.Error("P_RF(1) should fail: neighbour 0 still has status C")
	}
	// A non-reset process cannot start its feedback.
	cfg4 := composedConfig(t,
		[]SDRState{{St: StatusRB, D: 0}, {St: StatusRB, D: 1}, {St: StatusRF, D: 2}},
		[]int{0, 3, 0})
	if PRF(inner, net.View(cfg4, 1)) {
		t.Error("P_RF(1) should fail: the process is not in its reset state")
	}
}

func TestPC(t *testing.T) {
	net := pathNetwork(t)
	inner := newTestInner(5)

	// Process 1 (RF@1, reset) with neighbours 0 (C, reset) and 2 (RF@2 ≥ 1,
	// reset): P_C(1) holds.
	cfg := composedConfig(t,
		[]SDRState{CleanSDRState(), {St: StatusRF, D: 1}, {St: StatusRF, D: 2}},
		[]int{0, 0, 0})
	if !PC(inner, net.View(cfg, 1)) {
		t.Error("P_C(1) should hold")
	}
	// An RF neighbour with a smaller distance blocks the completion.
	cfg2 := composedConfig(t,
		[]SDRState{{St: StatusRF, D: 0}, {St: StatusRF, D: 1}, {St: StatusRF, D: 2}},
		[]int{0, 0, 0})
	if PC(inner, net.View(cfg2, 1)) {
		t.Error("P_C(1) should fail: neighbour 0 is an RF at a smaller distance")
	}
	// A neighbour that is not in its reset state blocks the completion.
	cfg3 := composedConfig(t,
		[]SDRState{CleanSDRState(), {St: StatusRF, D: 1}, {St: StatusRF, D: 2}},
		[]int{4, 0, 0})
	if PC(inner, net.View(cfg3, 1)) {
		t.Error("P_C(1) should fail: neighbour 0 is not in its reset state")
	}
	// An RB neighbour blocks the completion.
	cfg4 := composedConfig(t,
		[]SDRState{{St: StatusRB, D: 0}, {St: StatusRF, D: 1}, {St: StatusRF, D: 2}},
		[]int{0, 0, 0})
	if PC(inner, net.View(cfg4, 1)) {
		t.Error("P_C(1) should fail: neighbour 0 is still broadcasting")
	}
}

func TestPR2(t *testing.T) {
	net := pathNetwork(t)
	inner := newTestInner(5)
	cfg := composedConfig(t,
		[]SDRState{{St: StatusRB, D: 0}, {St: StatusRF, D: 1}, CleanSDRState()},
		[]int{3, 0, 3})
	if !PR2(inner, net.View(cfg, 0)) {
		t.Error("P_R2(0) should hold: status RB but not in the reset state")
	}
	if PR2(inner, net.View(cfg, 1)) {
		t.Error("P_R2(1) should fail: the process is in its reset state")
	}
	if PR2(inner, net.View(cfg, 2)) {
		t.Error("P_R2(2) should fail: status C")
	}
}

func TestPUp(t *testing.T) {
	net := pathNetwork(t)
	inner := newTestInner(5)

	// I-incorrect process with no broadcasting neighbour must start a reset.
	cfg := composedConfig(t, allClean(3), []int{0, 0, 2})
	if !PUp(inner, net.View(cfg, 2)) {
		t.Error("P_Up(2) should hold: locally incorrect, no RB neighbour")
	}
	// The same process with a broadcasting neighbour joins instead (P_RB
	// suppresses P_Up).
	cfg2 := composedConfig(t,
		[]SDRState{CleanSDRState(), {St: StatusRB, D: 0}, CleanSDRState()},
		[]int{0, 0, 2})
	if PUp(inner, net.View(cfg2, 2)) {
		t.Error("P_Up(2) should fail when a neighbour is already broadcasting")
	}
	// A locally correct, clean process must not start a reset.
	cfg3 := composedConfig(t, allClean(3), []int{0, 0, 0})
	for u := 0; u < 3; u++ {
		if PUp(inner, net.View(cfg3, u)) {
			t.Errorf("P_Up(%d) should fail in a correct configuration", u)
		}
	}
}

func TestRootsAndNormal(t *testing.T) {
	net := pathNetwork(t)
	inner := newTestInner(5)

	// A broadcasting local minimum is an alive root.
	cfg := composedConfig(t,
		[]SDRState{{St: StatusRB, D: 0}, {St: StatusRB, D: 1}, {St: StatusRF, D: 2}},
		[]int{0, 0, 0})
	if !PRoot(net.View(cfg, 0)) || !IsAliveRoot(inner, net.View(cfg, 0)) {
		t.Error("process 0 should be an alive root")
	}
	if IsAliveRoot(inner, net.View(cfg, 1)) {
		t.Error("process 1 should not be an alive root (its neighbour 0 broadcasts at a smaller distance)")
	}
	if got := AliveRoots(inner, net, cfg); len(got) != 1 || got[0] != 0 {
		t.Errorf("AliveRoots = %v, want [0]", got)
	}

	// Normal configurations: clean everywhere and I-correct everywhere.
	if normal(inner, net, cfg) {
		t.Error("a configuration with broadcasting processes is not normal")
	}
	good := composedConfig(t, allClean(3), []int{1, 1, 2})
	if !normal(inner, net, good) {
		t.Error("an all-C, locally correct configuration is normal")
	}
	bad := composedConfig(t, allClean(3), []int{0, 2, 2})
	if normal(inner, net, bad) {
		t.Error("an I-incorrect configuration is not normal")
	}
}

func TestTerminalIffNormal(t *testing.T) {
	// Theorem 1: a configuration is terminal for SDR (no SDR rule enabled,
	// and since inner rules are guarded by P_Clean ∧ P_ICorrect, the composed
	// configuration may only have inner rules enabled) iff it is normal.
	// Here we check the composed algorithm: a normal configuration has no SDR
	// rule enabled, and every non-normal configuration has some rule enabled.
	inner := newTestInner(2)
	comp := Compose(inner)
	net := pathNetwork(t)

	normalCfg := composedConfig(t, allClean(3), []int{1, 1, 1})
	for u := 0; u < 3; u++ {
		for _, ri := range sim.EnabledRules(comp, net, normalCfg, u) {
			name := comp.Rules()[ri].Name
			if IsSDRRule(name) {
				t.Errorf("SDR rule %s enabled at %d in a normal configuration", name, u)
			}
		}
	}

	// Enumerate a slice of the composed state space and check the
	// characterisation on every sampled configuration.
	states := sim.StateSpace(comp, 0, net)
	if len(states) == 0 {
		t.Fatal("composed algorithm should enumerate states")
	}
	checked := 0
	for i := 0; i < len(states); i += 7 {
		for j := 0; j < len(states); j += 11 {
			for k := 0; k < len(states); k += 13 {
				cfg := sim.NewConfiguration([]sim.State{states[i], states[j], states[k]})
				terminalForSDR := true
				for u := 0; u < 3; u++ {
					for _, ri := range sim.EnabledRules(comp, net, cfg, u) {
						if IsSDRRule(comp.Rules()[ri].Name) {
							terminalForSDR = false
						}
					}
				}
				if terminalForSDR != normal(inner, net, cfg) {
					t.Fatalf("Theorem 1 violated at %s: terminal-for-SDR=%v, normal=%v",
						cfg, terminalForSDR, normal(inner, net, cfg))
				}
				checked++
			}
		}
	}
	if checked == 0 {
		t.Fatal("no configurations checked")
	}
}

// normal reports whether c is a normal configuration: NormalPredicate holds
// at every process.
func normal(inner Resettable, net *sim.Network, c *sim.Configuration) bool {
	return sim.AllProcesses(net, NormalPredicate(inner))(c)
}
