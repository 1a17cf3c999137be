package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"sdr/internal/graph"
)

// intState is a trivial one-variable state used by the test algorithms.
type intState struct{ v int }

func (s intState) Equal(other State) bool {
	o, ok := other.(intState)
	return ok && o.v == s.v
}
func (s intState) String() string { return fmt.Sprintf("%d", s.v) }

// maxPropagation is a silent algorithm: every process adopts the maximum
// value seen in its closed neighbourhood. It terminates when all values are
// equal to the global maximum; from the initial configuration value(u) = u,
// that takes at most diameter rounds.
type maxPropagation struct{}

func (maxPropagation) Name() string { return "max-propagation" }

func (maxPropagation) Rules() []Rule {
	return []Rule{{
		Name: "adopt-max",
		Guard: func(v View) bool {
			return maxNeighbor(v) > v.Self().(intState).v
		},
		Action: func(v View) State {
			return intState{v: maxNeighbor(v)}
		},
	}}
}

func maxNeighbor(v View) int {
	best := v.Self().(intState).v
	for i := 0; i < v.Degree(); i++ {
		if nv := v.Neighbor(i).(intState).v; nv > best {
			best = nv
		}
	}
	return best
}

func (maxPropagation) InitialState(u int, _ *Network) State { return intState{v: u} }

// ticker is a non-terminating algorithm: every process is always enabled and
// increments its value modulo 4. Used to exercise step bounds.
type ticker struct{}

func (ticker) Name() string { return "ticker" }
func (ticker) Rules() []Rule {
	return []Rule{{
		Name:   "tick",
		Guard:  func(View) bool { return true },
		Action: func(v View) State { return intState{v: (v.Self().(intState).v + 1) % 4} },
	}}
}
func (ticker) InitialState(int, *Network) State { return intState{v: 0} }

// twoRules has two simultaneously enabled rules, so that the rule choice can
// be tested: "up" adds 2, "down" adds 1, both only when the value is 0.
type twoRules struct{}

func (twoRules) Name() string { return "two-rules" }
func (twoRules) Rules() []Rule {
	return []Rule{
		{
			Name:   "up",
			Guard:  func(v View) bool { return v.Self().(intState).v == 0 },
			Action: func(v View) State { return intState{v: 2} },
		},
		{
			Name:   "down",
			Guard:  func(v View) bool { return v.Self().(intState).v == 0 },
			Action: func(v View) State { return intState{v: 1} },
		},
	}
}
func (twoRules) InitialState(int, *Network) State { return intState{v: 0} }

func TestConfigurationBasics(t *testing.T) {
	c := NewConfiguration([]State{intState{1}, intState{2}})
	if c.N() != 2 {
		t.Fatalf("N = %d, want 2", c.N())
	}
	clone := c.Clone()
	if !c.Equal(clone) {
		t.Error("clone not equal")
	}
	clone.SetState(0, intState{9})
	if c.Equal(clone) {
		t.Error("modified clone still equal")
	}
	if c.State(0).(intState).v != 1 {
		t.Error("clone mutation leaked into original")
	}
	if c.Equal(nil) {
		t.Error("Equal(nil) = true")
	}
	ki := NewKeyInterner()
	if c.String() == "" || ki.Key(c) == "" {
		t.Error("empty String/Key")
	}
	if ki.Key(c) == ki.Key(clone) {
		t.Error("distinct configurations share a key")
	}
}

func TestNewNetworkValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewNetwork accepted a disconnected graph")
		}
	}()
	NewNetwork(graph.NewBuilder(3, 0).MustGraph())
}

func TestViewAccessors(t *testing.T) {
	g := graph.Star(4) // centre 0, leaves 1..3
	net := NewNetwork(g)
	c := NewConfiguration([]State{intState{10}, intState{11}, intState{12}, intState{13}})
	v := net.View(c, 0)
	if v.Degree() != 3 {
		t.Fatalf("Degree = %d, want 3", v.Degree())
	}
	if v.Self().(intState).v != 10 {
		t.Error("Self wrong")
	}
	if v.Neighbor(1).(intState).v != 12 {
		t.Error("Neighbor(1) wrong")
	}
	if v.ID() != 0 || v.NeighborID(2) != 3 {
		t.Error("identifier accessors wrong")
	}
	if v.Process() != 0 {
		t.Error("Process() wrong")
	}
	if v.AllNeighbors(func(s State) bool { return s.(intState).v > 11 }) {
		t.Error("AllNeighbors over-matched")
	}
	if got := v.CountNeighbors(func(s State) bool { return s.(intState).v >= 12 }); got != 2 {
		t.Errorf("CountNeighbors = %d, want 2", got)
	}
}

func TestEnabledHelpers(t *testing.T) {
	net := NewNetwork(graph.Path(3))
	alg := maxPropagation{}
	c := InitialConfiguration(alg, net)
	// Initial values 0,1,2: processes 0 and 1 are enabled, 2 is not.
	if !Enabled(alg, net, c, 0) || !Enabled(alg, net, c, 1) || Enabled(alg, net, c, 2) {
		t.Error("unexpected enabled statuses")
	}
	set := EnabledSet(alg, net, c)
	if len(set) != 2 || set[0] != 0 || set[1] != 1 {
		t.Errorf("EnabledSet = %v, want [0 1]", set)
	}
	if Terminal(alg, net, c) {
		t.Error("non-terminal configuration reported terminal")
	}
	if rules := EnabledRules(alg, net, c, 2); rules != nil {
		t.Errorf("EnabledRules at disabled process = %v, want nil", rules)
	}
}

func TestRunMaxPropagationTerminates(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"path8", graph.Path(8)},
		{"ring9", graph.Ring(9)},
		{"star6", graph.Star(6)},
		{"grid4x4", graph.Grid(4, 4)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net := NewNetwork(tc.g)
			for _, df := range StandardDaemonFactories() {
				eng := NewEngine(net, maxPropagation{}, df.New(1))
				res := eng.Run(InitialConfiguration(maxPropagation{}, net))
				if !res.Terminated {
					t.Fatalf("daemon %s: did not terminate", df.Name)
				}
				want := tc.g.N() - 1
				for u := 0; u < res.Final.N(); u++ {
					if v := res.Final.State(u).(intState).v; v != want {
						t.Fatalf("daemon %s: process %d final value %d, want %d", df.Name, u, v, want)
					}
				}
				if res.Moves == 0 || res.Steps == 0 || res.Rounds == 0 {
					t.Fatalf("daemon %s: empty accounting %+v", df.Name, res)
				}
			}
		})
	}
}

func TestRunRoundsBoundedByEccentricity(t *testing.T) {
	// Under any daemon, max-propagation stabilizes within ecc(v*) rounds
	// where v* is the node with the maximum value (here node n-1).
	g := graph.Path(10)
	net := NewNetwork(g)
	bound := slices.Max(g.BFS(g.N() - 1)) // the eccentricity of node n-1
	for _, df := range StandardDaemonFactories() {
		for seed := int64(0); seed < 3; seed++ {
			eng := NewEngine(net, maxPropagation{}, df.New(seed))
			res := eng.Run(InitialConfiguration(maxPropagation{}, net))
			if res.Rounds > bound {
				t.Errorf("daemon %s seed %d: %d rounds, want <= %d", df.Name, seed, res.Rounds, bound)
			}
		}
	}
}

func TestRunSynchronousRoundsEqualSteps(t *testing.T) {
	// Under the synchronous daemon every step is a round.
	net := NewNetwork(graph.Path(6))
	eng := NewEngine(net, maxPropagation{}, SynchronousDaemon{})
	res := eng.Run(InitialConfiguration(maxPropagation{}, net))
	if res.Rounds != res.Steps {
		t.Errorf("synchronous: rounds %d != steps %d", res.Rounds, res.Steps)
	}
}

func TestRunStepLimit(t *testing.T) {
	net := NewNetwork(graph.Ring(4))
	eng := NewEngine(net, ticker{}, SynchronousDaemon{})
	res := eng.Run(InitialConfiguration(ticker{}, net), WithMaxSteps(25))
	if !res.HitStepLimit {
		t.Error("step limit not reported")
	}
	if res.Terminated {
		t.Error("non-terminating algorithm reported terminated")
	}
	if res.Steps != 25 {
		t.Errorf("Steps = %d, want 25", res.Steps)
	}
	if res.Moves != 25*4 {
		t.Errorf("Moves = %d, want 100", res.Moves)
	}
}

func TestRunLegitimateTracking(t *testing.T) {
	g := graph.Path(5)
	net := NewNetwork(g)
	legit := func(v View) bool { return v.Self().(intState).v == g.N()-1 }
	eng := NewEngine(net, maxPropagation{}, SynchronousDaemon{})
	res := eng.Run(InitialConfiguration(maxPropagation{}, net), WithLegitimate(legit))
	if !res.LegitimateReached {
		t.Fatal("legitimate configuration not detected")
	}
	if res.StabilizationMoves < 0 || res.StabilizationMoves > res.Moves {
		t.Errorf("StabilizationMoves = %d out of range", res.StabilizationMoves)
	}
	if res.StabilizationRounds < 0 || res.StabilizationRounds > res.Rounds {
		t.Errorf("StabilizationRounds = %d out of range", res.StabilizationRounds)
	}
	if res.StabilizationMovesPerProcessMax > res.MaxMovesPerProcess {
		t.Error("per-process stabilization moves exceed total per-process moves")
	}

	// Already-legitimate start: zero stabilization cost.
	final := res.Final.Clone()
	res2 := eng.Run(final, WithLegitimate(legit))
	if !res2.LegitimateReached || res2.StabilizationMoves != 0 || res2.StabilizationRounds != 0 {
		t.Errorf("legitimate start not recognised: %+v", res2)
	}
}

func TestRunStopWhenLegitimate(t *testing.T) {
	net := NewNetwork(graph.Ring(5))
	legitAfter := func(v View) bool {
		return v.Process() != 0 || v.Self().(intState).v >= 2
	}
	eng := NewEngine(net, ticker{}, SynchronousDaemon{})
	res := eng.Run(InitialConfiguration(ticker{}, net),
		WithLegitimate(legitAfter), WithStopWhenLegitimate(), WithMaxSteps(1000))
	if !res.LegitimateReached {
		t.Fatal("legitimate configuration never reached")
	}
	if res.HitStepLimit {
		t.Error("run did not stop at the legitimate configuration")
	}
	if res.Steps != 2 {
		t.Errorf("Steps = %d, want 2", res.Steps)
	}
}

// TestRunStartConfigurationNotModified pins that the engine's buffers share
// the start configuration's boxes, never its slice: neither moves, nor
// sharded moves, nor an injected state replacement reach the start.
func TestRunStartConfigurationNotModified(t *testing.T) {
	net := NewNetwork(graph.Path(200))
	start := InitialConfiguration(maxPropagation{}, net)
	want := start.Clone()
	for _, c := range []struct {
		name string
		opts []Option
	}{
		{"plain", nil},
		{"sharded", []Option{WithShards(3)}},
		{"injected", []Option{WithInjector(&resetOnce{})}},
	} {
		res := NewEngine(net, maxPropagation{}, SynchronousDaemon{}).Run(start, c.opts...)
		if res.Moves == 0 || (c.name == "injected") != (len(res.Events) == 1) {
			t.Fatalf("%s: %d moves, %d events", c.name, res.Moves, len(res.Events))
		}
		if !start.Equal(want) {
			t.Fatalf("%s: Run modified the starting configuration", c.name)
		}
	}
}

// resetOnce sets every process to -u at the first boundary, so that the
// run propagates the value 0 from process 0.
type resetOnce struct{ fired bool }

func (r *resetOnce) Inject(p InjectionPoint) *Injection {
	if r.fired {
		return nil
	}
	r.fired = true
	injn := &Injection{Label: "reset"}
	for u := 0; u < p.Config.N(); u++ {
		injn.SetStates = append(injn.SetStates, StateChange{Process: u, State: intState{v: -u}})
	}
	return injn
}

func (r *resetOnce) Done() bool { return r.fired }

func TestRunPanicsOnMismatchedConfiguration(t *testing.T) {
	net := NewNetwork(graph.Path(4))
	eng := NewEngine(net, maxPropagation{}, SynchronousDaemon{})
	defer func() {
		if recover() == nil {
			t.Error("mismatched configuration accepted")
		}
	}()
	eng.Run(NewConfiguration([]State{intState{0}}))
}

// TestRunERejectsMismatchedConfiguration pins RunE's contract: a start
// configuration that does not fit the network is an error, not a panic.
func TestRunERejectsMismatchedConfiguration(t *testing.T) {
	eng := NewEngine(NewNetwork(graph.Path(4)), maxPropagation{}, SynchronousDaemon{})
	for _, start := range []*Configuration{NewConfiguration([]State{intState{0}}), nil} {
		if _, err := eng.RunE(start); err == nil {
			t.Errorf("RunE accepted start configuration %v for 4 processes", start)
		}
	}
}

func TestNewEnginePanicsOnNil(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewEngine(nil, nil, nil) did not panic")
		}
	}()
	NewEngine(nil, nil, nil)
}

func TestStepHookObservesMoves(t *testing.T) {
	net := NewNetwork(graph.Path(4))
	var hookMoves int
	hook := func(info StepInfo) {
		if len(info.Activated) != len(info.Rules) {
			t.Errorf("step %d: %d activated vs %d rules", info.Step, len(info.Activated), len(info.Rules))
		}
		hookMoves += len(info.Activated)
		if info.Before == nil || info.After == nil {
			t.Error("hook saw nil configurations")
		}
	}
	eng := NewEngine(net, maxPropagation{}, SynchronousDaemon{})
	res := eng.Run(InitialConfiguration(maxPropagation{}, net), WithStepHook(hook))
	if hookMoves != res.Moves {
		t.Errorf("hook saw %d moves, result says %d", hookMoves, res.Moves)
	}
}

// TestRuleChoicePolicies pins the engine's one rule choice: a process with
// several enabled rules executes the first, and hooks see its index.
func TestRuleChoicePolicies(t *testing.T) {
	net := NewNetwork(graph.Path(2))
	alg := twoRules{}

	var seen []int
	hook := func(info StepInfo) { seen = append(seen, info.Rules...) }
	res := NewEngine(net, alg, SynchronousDaemon{}).Run(InitialConfiguration(alg, net), WithStepHook(hook))
	if res.MovesPerRule["up"] != 2 || res.MovesPerRule["down"] != 0 {
		t.Errorf("first-enabled choice: %v", res.MovesPerRule)
	}
	if !slices.Equal(seen, []int{0, 0}) {
		t.Errorf("hooks saw rule indices %v, want [0 0]", seen)
	}
}

func TestDaemonsSelectOnlyEnabledProcesses(t *testing.T) {
	g := graph.RandomConnected(12, 0.25, rand.New(rand.NewSource(11)))
	net := NewNetwork(g)
	for _, df := range StandardDaemonFactories() {
		daemon := df.New(3)
		alg := maxPropagation{}
		c := InitialConfiguration(alg, net)
		for step := 0; step < 20; step++ {
			enabled := EnabledSet(alg, net, c)
			if len(enabled) == 0 {
				break
			}
			sel := daemon.Select(Selection{Net: net, Alg: alg, Config: c, Enabled: enabled, Step: step})
			if len(sel) == 0 {
				t.Fatalf("daemon %s returned an empty selection", df.Name)
			}
			enabledSet := map[int]bool{}
			for _, u := range enabled {
				enabledSet[u] = true
			}
			for _, u := range sel {
				if !enabledSet[u] {
					t.Fatalf("daemon %s selected disabled process %d", df.Name, u)
				}
			}
			// Apply the step like the engine would.
			next := NewConfiguration(copyStates(c))
			for _, u := range sel {
				v := net.View(c, u)
				for _, r := range alg.Rules() {
					if r.Guard(v) {
						next.SetState(u, r.Action(v))
						break
					}
				}
			}
			c = next
		}
	}
}

func TestLocallyCentralDaemonIndependence(t *testing.T) {
	g := graph.Complete(6)
	net := NewNetwork(g)
	d := NewLocallyCentralDaemon(rand.New(rand.NewSource(2)))
	alg := ticker{}
	c := InitialConfiguration(alg, net)
	enabled := EnabledSet(alg, net, c)
	for trial := 0; trial < 10; trial++ {
		sel := d.Select(Selection{Net: net, Alg: alg, Config: c, Enabled: enabled, Step: trial})
		if len(sel) != 1 {
			t.Fatalf("locally central daemon on a clique selected %d processes, want 1", len(sel))
		}
	}
}

// mapLocallyCentral is the locally central daemon as it was first written,
// with rand.Perm and a map of taken processes: the schedule specification
// of LocallyCentralDaemon.
func mapLocallyCentral(rng *rand.Rand, sel Selection) []int {
	taken := make(map[int]bool)
	var out []int
	for _, i := range rng.Perm(len(sel.Enabled)) {
		u := sel.Enabled[i]
		conflict := false
		for j, deg := 0, sel.Net.Degree(u); j < deg; j++ {
			if taken[sel.Net.Neighbor(u, j)] {
				conflict = true
				break
			}
		}
		if !conflict {
			taken[u] = true
			out = append(out, u)
		}
	}
	return out
}

// TestLocallyCentralDaemonMatchesPerm checks that LocallyCentralDaemon,
// which reuses its buffers, selects exactly what the rand.Perm-and-map
// version selects from the same seed, step after step, on enabled sets of
// every density over a torus and a random graph, so that seeded schedules
// did not change.
func TestLocallyCentralDaemonMatchesPerm(t *testing.T) {
	draw := rand.New(rand.NewSource(9))
	for _, g := range []*graph.Graph{graph.Torus(6, 6), graph.RandomConnected(40, 0.1, draw)} {
		net := NewNetwork(g)
		for seed := int64(1); seed <= 5; seed++ {
			d := NewLocallyCentralDaemon(rand.New(rand.NewSource(seed)))
			ref := rand.New(rand.NewSource(seed))
			for step := 0; step < 200; step++ {
				var enabled []int
				density := 1 + draw.Intn(100)
				for u := 0; u < net.N(); u++ {
					if draw.Intn(100) < density {
						enabled = append(enabled, u)
					}
				}
				if len(enabled) == 0 {
					enabled = []int{draw.Intn(net.N())}
				}
				sel := Selection{Net: net, Enabled: enabled, Step: step}
				got, want := d.Select(sel), mapLocallyCentral(ref, sel)
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("seed %d step %d: selected %v, rand.Perm version %v", seed, step, got, want)
				}
			}
		}
	}
}

func TestRoundRobinDaemonIsWeaklyFair(t *testing.T) {
	net := NewNetwork(graph.Ring(6))
	d := NewRoundRobinDaemon()
	alg := ticker{}
	c := InitialConfiguration(alg, net)
	enabled := EnabledSet(alg, net, c)
	seen := map[int]bool{}
	for i := 0; i < 6; i++ {
		sel := d.Select(Selection{Net: net, Alg: alg, Config: c, Enabled: enabled, Step: i})
		if len(sel) != 1 {
			t.Fatalf("round robin selected %d processes", len(sel))
		}
		seen[sel[0]] = true
	}
	if len(seen) != 6 {
		t.Errorf("round robin covered %d processes in 6 steps, want 6", len(seen))
	}
}

func TestSanitizeSelection(t *testing.T) {
	got := referenceSanitizeSelection([]int{5, 3, 3, 9}, []int{1, 3, 5})
	if len(got) != 2 || got[0] != 3 || got[1] != 5 {
		t.Errorf("referenceSanitizeSelection = %v, want [3 5]", got)
	}
	got = referenceSanitizeSelection(nil, []int{2, 4})
	if len(got) != 1 || got[0] != 2 {
		t.Errorf("referenceSanitizeSelection fallback = %v, want [2]", got)
	}
}

func TestAllProcessesPredicate(t *testing.T) {
	net := NewNetwork(graph.Path(3))
	pred := AllProcesses(net, func(v View) bool { return v.Self().(intState).v >= 0 })
	c := NewConfiguration([]State{intState{0}, intState{1}, intState{2}})
	if !pred(c) {
		t.Error("predicate should hold")
	}
	c.SetState(1, intState{-1})
	if pred(c) {
		t.Error("predicate should fail")
	}
}

// Property: total moves equal the sum of per-process moves and the sum of
// per-rule moves, for random graphs and daemons.
func TestQuickMoveAccountingConsistent(t *testing.T) {
	factories := StandardDaemonFactories()
	f := func(seed int64, size, daemonIdx uint8) bool {
		n := 2 + int(size)%20
		rng := rand.New(rand.NewSource(seed))
		g := graph.RandomConnected(n, 0.2, rng)
		net := NewNetwork(g)
		df := factories[int(daemonIdx)%len(factories)]
		eng := NewEngine(net, maxPropagation{}, df.New(seed))
		res := eng.Run(InitialConfiguration(maxPropagation{}, net))
		if !res.Terminated {
			return false
		}
		perProcess := 0
		for _, m := range res.MovesPerProcess {
			perProcess += m
		}
		perRule := 0
		for _, m := range res.MovesPerRule {
			perRule += m
		}
		return perProcess == res.Moves && perRule == res.Moves
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: max-propagation always converges to the true maximum regardless
// of daemon and topology (a basic sanity check of composite atomicity).
func TestQuickMaxPropagationCorrect(t *testing.T) {
	factories := StandardDaemonFactories()
	f := func(seed int64, size, daemonIdx uint8) bool {
		n := 2 + int(size)%15
		rng := rand.New(rand.NewSource(seed))
		g := graph.RandomConnected(n, 0.3, rng)
		net := NewNetwork(g)
		df := factories[int(daemonIdx)%len(factories)]
		eng := NewEngine(net, maxPropagation{}, df.New(seed+1))
		res := eng.Run(InitialConfiguration(maxPropagation{}, net))
		if !res.Terminated {
			return false
		}
		for u := 0; u < res.Final.N(); u++ {
			if res.Final.State(u).(intState).v != n-1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestStabilizationRoundsCountsPartialRound pins the round-accounting
// convention shared by Rounds and StabilizationRounds: legitimacy reached
// while a round is still in progress counts that round, so both are
// conservative upper estimates. Run and RunReference must agree.
func TestStabilizationRoundsCountsPartialRound(t *testing.T) {
	net := NewNetwork(graph.Ring(3))
	legit := func(v View) bool { return v.Process() != 0 || v.Self().(intState).v >= 1 }
	opts := func() []Option {
		return []Option{WithLegitimate(legit), WithStopWhenLegitimate(), WithMaxSteps(100)}
	}
	// Round-robin activates exactly one process per step, so after the first
	// step (process 0 moves) the predicate holds while processes 1 and 2 are
	// still pending in the first round: the round in progress counts.
	res := NewEngine(net, ticker{}, NewRoundRobinDaemon()).Run(
		InitialConfiguration(ticker{}, net), opts()...)
	if !res.LegitimateReached || res.StabilizationSteps != 1 {
		t.Fatalf("expected legitimacy after exactly one step, got %+v", res)
	}
	if res.StabilizationRounds != 1 {
		t.Errorf("StabilizationRounds = %d, want 1 (mid-round legitimacy counts the round in progress)",
			res.StabilizationRounds)
	}
	if res.StabilizationRounds > res.Rounds {
		t.Errorf("StabilizationRounds %d exceeds Rounds %d", res.StabilizationRounds, res.Rounds)
	}
	ref := NewEngine(net, ticker{}, NewRoundRobinDaemon()).RunReference(
		InitialConfiguration(ticker{}, net), opts()...)
	if ref.StabilizationRounds != res.StabilizationRounds || ref.Rounds != res.Rounds {
		t.Errorf("RunReference rounds %d/%d diverge from Run %d/%d",
			ref.StabilizationRounds, ref.Rounds, res.StabilizationRounds, res.Rounds)
	}

	// At a round boundary the count is exact: under the synchronous daemon
	// every round is one step, and legitimacy at the end of round 1 must not
	// be inflated by a phantom partial round.
	sync := NewEngine(net, ticker{}, SynchronousDaemon{}).Run(
		InitialConfiguration(ticker{}, net), opts()...)
	if !sync.LegitimateReached || sync.StabilizationRounds != 1 || sync.Rounds != 1 {
		t.Errorf("synchronous stabilization = %d rounds (total %d), want exactly 1",
			sync.StabilizationRounds, sync.Rounds)
	}
}

// EnabledSet returns the sorted set of enabled processes in c.
func EnabledSet(a Algorithm, net *Network, c *Configuration) []int {
	return NewEvaluator(a, net).AppendEnabled(nil, c)
}
