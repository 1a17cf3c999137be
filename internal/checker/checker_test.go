package checker

import (
	"strings"
	"testing"

	"sdr/internal/graph"
	"sdr/internal/sim"
)

// counterState and counterAlg form a tiny test algorithm: every process holds
// a counter; a process may increment while it is below the minimum of its
// neighbours plus one, up to a cap. From any configuration the algorithm
// converges to the all-cap configuration when the cap is reachable.
type counterState struct{ V int }

func (s counterState) Equal(o sim.State) bool {
	os, ok := o.(counterState)
	return ok && os == s
}
func (s counterState) String() string {
	digits := "0123456789"
	if s.V < 10 {
		return "v=" + string(digits[s.V])
	}
	return "v=" + string(digits[s.V/10]) + string(digits[s.V%10])
}

type counterAlg struct{ cap int }

func (a counterAlg) Name() string { return "counter" }
func (a counterAlg) InitialState(int, *sim.Network) sim.State {
	return counterState{V: 0}
}
func (a counterAlg) StateCount(int, *sim.Network) int { return a.cap + 1 }
func (a counterAlg) StateAt(_ int, _ *sim.Network, i int) sim.State {
	return counterState{V: i}
}
func (a counterAlg) Rules() []sim.Rule {
	return []sim.Rule{{
		Name: "inc",
		Guard: func(v sim.View) bool {
			self := v.Self().(counterState).V
			if self >= a.cap {
				return false
			}
			return v.AllNeighbors(func(s sim.State) bool { return s.(counterState).V >= self })
		},
		Action: func(v sim.View) sim.State {
			return counterState{V: v.Self().(counterState).V + 1}
		},
	}}
}

var (
	_ sim.Algorithm  = counterAlg{}
	_ sim.Enumerable = counterAlg{}
)

// flipFlopAlg never converges: a single process toggles between two states.
type flipFlopAlg struct{}

func (flipFlopAlg) Name() string                             { return "flipflop" }
func (flipFlopAlg) InitialState(int, *sim.Network) sim.State { return counterState{V: 0} }
func (flipFlopAlg) StateCount(int, *sim.Network) int         { return 2 }
func (flipFlopAlg) StateAt(_ int, _ *sim.Network, i int) sim.State {
	return counterState{V: i}
}
func (flipFlopAlg) Rules() []sim.Rule {
	return []sim.Rule{{
		Name:  "flip",
		Guard: func(sim.View) bool { return true },
		Action: func(v sim.View) sim.State {
			return counterState{V: 1 - v.Self().(counterState).V}
		},
	}}
}

var _ sim.Algorithm = flipFlopAlg{}

func allAtCap(capValue, n int) sim.Predicate {
	return func(c *sim.Configuration) bool {
		for u := 0; u < n; u++ {
			if c.State(u).(counterState).V != capValue {
				return false
			}
		}
		return true
	}
}

func TestCheckClosure(t *testing.T) {
	g := graph.Ring(4)
	net := sim.NewNetwork(g)
	alg := counterAlg{cap: 3}

	// "All counters ≥ 0" is trivially closed.
	nonNegative := func(c *sim.Configuration) bool {
		for u := 0; u < c.N(); u++ {
			if c.State(u).(counterState).V < 0 {
				return false
			}
		}
		return true
	}
	start := sim.InitialConfiguration(alg, net)
	if err := CheckClosure(net, alg, sim.SynchronousDaemon{}, start, nonNegative, 1000); err != nil {
		t.Errorf("a trivially closed predicate was reported as violated: %v", err)
	}

	// "All counters = 0" is violated by the first step.
	allZero := allAtCap(0, g.N())
	if err := CheckClosure(net, alg, sim.SynchronousDaemon{}, start, allZero, 1000); err == nil {
		t.Error("a non-closed predicate must be reported")
	}

	// Starting outside the predicate is itself an error.
	if err := CheckClosure(net, alg, sim.SynchronousDaemon{}, start, allAtCap(3, g.N()), 1000); err == nil {
		t.Error("a start outside the predicate must be rejected")
	}
}

func TestExploreConvergence(t *testing.T) {
	g := graph.Path(2)
	net := sim.NewNetwork(g)
	alg := counterAlg{cap: 2}

	var starts []*sim.Configuration
	for a := 0; a <= 2; a++ {
		for b := 0; b <= 2; b++ {
			starts = append(starts, sim.NewConfiguration([]sim.State{counterState{V: a}, counterState{V: b}}))
		}
	}
	report, err := Explore(net, alg, starts, ExploreOptions{
		Legitimate: allAtCap(2, g.N()),
	})
	if err != nil {
		t.Fatalf("exploration failed: %v", err)
	}
	if !report.Complete {
		t.Error("the tiny state space must be explored completely")
	}
	if report.Configurations != 9 {
		t.Errorf("explored %d configurations, want 9", report.Configurations)
	}
	if report.TerminalConfigurations != 1 {
		t.Errorf("found %d terminal configurations, want exactly the all-cap one", report.TerminalConfigurations)
	}
	if report.LegitimateConfigurations != 1 {
		t.Errorf("found %d legitimate configurations, want 1", report.LegitimateConfigurations)
	}
}

func TestExploreDetectsIllegitimateCycle(t *testing.T) {
	g := graph.Path(2)
	net := sim.NewNetwork(g)
	alg := flipFlopAlg{}
	starts := []*sim.Configuration{sim.NewConfiguration([]sim.State{counterState{V: 0}, counterState{V: 0}})}
	_, err := Explore(net, alg, starts, ExploreOptions{
		Legitimate: func(*sim.Configuration) bool { return false },
	})
	if err == nil {
		t.Error("a diverging algorithm must be reported as an illegitimate cycle")
	}
}

func TestExploreDetectsIllegitimateTerminal(t *testing.T) {
	g := graph.Path(2)
	net := sim.NewNetwork(g)
	alg := counterAlg{cap: 1}
	starts := []*sim.Configuration{sim.InitialConfiguration(alg, net)}
	_, err := Explore(net, alg, starts, ExploreOptions{
		// The only terminal configuration (all at cap) is declared
		// illegitimate, which Explore must flag.
		Legitimate: func(*sim.Configuration) bool { return false },
	})
	if err == nil {
		t.Error("an illegitimate terminal configuration must be reported")
	}
}

// skipAtOneAlg is counterAlg with a RuleIndexer that disagrees with the
// guards at one reachable view: it reports process 1 disabled whenever its
// counter is 1, where the inc guard may hold.
type skipAtOneAlg struct{ counterAlg }

func (a skipAtOneAlg) FirstEnabled(v sim.View) int {
	if v.Process() == 1 && v.Self().(counterState).V == 1 {
		return -1
	}
	if a.Rules()[0].Guard(v) {
		return 0
	}
	return -1
}

var _ sim.RuleIndexer = skipAtOneAlg{}

// TestExploreRefutesIndexerDisagreement pins that Explore checks the engine's
// decision path against the guards: an indexer that skips a guard-enabled
// rule at one reachable configuration is refuted, naming the process and
// both rule indices, even though the guards alone converge.
func TestExploreRefutesIndexerDisagreement(t *testing.T) {
	g := graph.Path(2)
	net := sim.NewNetwork(g)
	starts := []*sim.Configuration{sim.NewConfiguration([]sim.State{counterState{V: 0}, counterState{V: 0}})}
	opts := ExploreOptions{Legitimate: allAtCap(2, g.N())}
	if _, err := Explore(net, counterAlg{cap: 2}, starts, opts); err != nil {
		t.Fatalf("the guards alone converge, got %v", err)
	}
	report, err := Explore(net, skipAtOneAlg{counterAlg{cap: 2}}, starts, opts)
	if err == nil {
		t.Fatal("an indexer disagreeing with the guards must be refuted")
	}
	if want := "checker: process 1: engine picks rule -1, guards 0 in "; !strings.HasPrefix(err.Error(), want) {
		t.Errorf("error %q, want prefix %q", err, want)
	}
	if report.Complete {
		t.Error("an aborted exploration must not be reported complete")
	}
}

func TestExploreSelectionCapAndConfigCap(t *testing.T) {
	g := graph.Ring(4)
	net := sim.NewNetwork(g)
	alg := counterAlg{cap: 4}
	starts := []*sim.Configuration{sim.InitialConfiguration(alg, net)}

	// A selection-size cap still explores (it restricts daemon choices).
	report, err := Explore(net, alg, starts, ExploreOptions{MaxSelectionSize: 1})
	if err != nil {
		t.Fatalf("capped exploration failed: %v", err)
	}
	if report.Configurations == 0 || report.Transitions == 0 {
		t.Error("capped exploration should still visit configurations")
	}

	// A tiny configuration cap marks the exploration incomplete and is never
	// overshot: the explored set stays within the cap even though a frontier
	// of successors was pending.
	report2, err := Explore(net, alg, starts, ExploreOptions{MaxConfigurations: 2})
	if err != nil {
		t.Fatalf("bounded exploration failed: %v", err)
	}
	if report2.Complete {
		t.Error("hitting the configuration cap must mark the exploration incomplete")
	}
	if report2.Configurations > 2 {
		t.Errorf("explored %d configurations, cap was 2", report2.Configurations)
	}
}

// TestExploreSequentialParallelIdentical asserts the level-parallel
// exploration produces reports (and error outcomes) bit-identical to the
// sequential one, on a convergent space, a diverging space, and a truncated
// space.
func TestExploreSequentialParallelIdentical(t *testing.T) {
	g := graph.Ring(5)
	net := sim.NewNetwork(g)
	alg := counterAlg{cap: 3}
	var starts []*sim.Configuration
	for a := 0; a <= 2; a++ {
		states := make([]sim.State, g.N())
		for u := range states {
			states[u] = counterState{V: (a + u) % 3}
		}
		starts = append(starts, sim.NewConfiguration(states))
	}
	cases := []struct {
		name string
		opts ExploreOptions
	}{
		{"exact", ExploreOptions{Legitimate: allAtCap(3, g.N())}},
		{"capped-selections", ExploreOptions{Legitimate: allAtCap(3, g.N()), MaxSelectionSize: 2}},
		{"truncated", ExploreOptions{MaxConfigurations: 40}},
	}
	for _, tc := range cases {
		seq := tc.opts
		seq.Workers = 1
		par := tc.opts
		par.Workers = 8
		seqReport, seqErr := Explore(net, alg, starts, seq)
		parReport, parErr := Explore(net, alg, starts, par)
		if seqReport != parReport {
			t.Errorf("%s: parallel report %+v != sequential %+v", tc.name, parReport, seqReport)
		}
		if (seqErr == nil) != (parErr == nil) || (seqErr != nil && seqErr.Error() != parErr.Error()) {
			t.Errorf("%s: parallel error %v != sequential %v", tc.name, parErr, seqErr)
		}
	}

	// A diverging algorithm must yield the same error either way.
	flip := flipFlopAlg{}
	fstarts := []*sim.Configuration{sim.NewConfiguration([]sim.State{counterState{V: 0}, counterState{V: 0}})}
	fnet := sim.NewNetwork(graph.Path(2))
	never := func(*sim.Configuration) bool { return false }
	_, seqErr := Explore(fnet, flip, fstarts, ExploreOptions{Legitimate: never, Workers: 1})
	_, parErr := Explore(fnet, flip, fstarts, ExploreOptions{Legitimate: never, Workers: 4})
	if seqErr == nil || parErr == nil || seqErr.Error() != parErr.Error() {
		t.Errorf("divergence errors differ: sequential %v, parallel %v", seqErr, parErr)
	}
}

// collectSelections materialises forEachSelection's output for assertions.
func collectSelections(enabled []int, maxSize int) [][]int {
	var out [][]int
	forEachSelection(enabled, maxSize, nil, func(sel []int) {
		out = append(out, append([]int(nil), sel...))
	})
	return out
}

func TestForEachSelection(t *testing.T) {
	sels := collectSelections([]int{1, 2, 3}, 0)
	if len(sels) != 7 {
		t.Errorf("3 enabled processes have 7 non-empty subsets, got %d", len(sels))
	}
	capped := collectSelections([]int{1, 2, 3}, 1)
	if len(capped) != 3 {
		t.Errorf("size-1 selections of 3 processes: want 3, got %d", len(capped))
	}
	// Canonical order: by size, then lexicographic by positions.
	want := [][]int{{1}, {2}, {3}, {1, 2}, {1, 3}, {2, 3}}
	got := collectSelections([]int{1, 2, 3}, 2)
	if len(got) != len(want) {
		t.Fatalf("selections = %v, want %v", got, want)
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("selections = %v, want %v", got, want)
		}
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("selections = %v, want %v", got, want)
			}
		}
	}
}

// TestForEachSelectionNoExponentialWork pins the tentpole property: a capped
// enumeration over a large enabled set emits exactly the capped subsets
// without iterating the 2^n masks (with 60 enabled processes the old
// mask-filter loop would spin through 2^60 iterations and never return).
func TestForEachSelectionNoExponentialWork(t *testing.T) {
	enabled := make([]int, 60)
	for i := range enabled {
		enabled[i] = i
	}
	count := 0
	forEachSelection(enabled, 2, nil, func(sel []int) { count++ })
	if want := 60 + 60*59/2; count != want {
		t.Errorf("capped enumeration emitted %d selections, want %d", count, want)
	}
}
