package spantree

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"sdr/internal/checker"
	"sdr/internal/core"
	"sdr/internal/faults"
	"sdr/internal/graph"
	"sdr/internal/sim"
)

// randomStart draws a configuration uniformly from an enumerable algorithm's
// state space.
func randomStart(t *testing.T, alg sim.Algorithm, net *sim.Network, rng *rand.Rand) *sim.Configuration {
	t.Helper()
	c, err := faults.RandomConfiguration(alg, net, rng)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New with maxDist < 1 must panic")
		}
	}()
	New(0, 0)
}

func TestNewForValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewFor with an out-of-range root must panic")
		}
	}()
	NewFor(graph.Ring(4), 9)
}

func TestNodeStateBasics(t *testing.T) {
	s := NodeState{Dist: 2, Parent: 5}
	if !s.Equal(NodeState{Dist: 2, Parent: 5}) || s.Equal(NodeState{Dist: 2, Parent: NoParent}) {
		t.Error("NodeState equality must be by value")
	}
	if !strings.Contains(s.String(), "p=5") {
		t.Errorf("String = %q should show the parent", s.String())
	}
	if !strings.Contains((NodeState{Dist: 4, Parent: NoParent}).String(), "⊥") {
		t.Error("a missing parent renders as ⊥")
	}
}

func TestResettableContract(t *testing.T) {
	g := graph.Ring(6)
	net := sim.NewNetwork(g)
	b := NewFor(g, 2)
	if b.rootID != 2 || b.maxDist != 6 {
		t.Errorf("NewFor: root=%d maxDist=%d", b.rootID, b.maxDist)
	}
	if !strings.Contains(b.Name(), "BFS") {
		t.Errorf("name %q should mention BFS", b.Name())
	}
	if err := core.CheckRequirements(b, net); err != nil {
		t.Errorf("Algorithm B must satisfy the composition requirements: %v", err)
	}
	if !b.IsReset(2, net, b.ResetState(2, net)) || !b.IsReset(0, net, b.ResetState(0, net)) {
		t.Error("each process's pre-defined state must satisfy its own P_reset")
	}
	if b.IsReset(0, net, NodeState{Dist: 3, Parent: NoParent}) || b.IsReset(0, net, NodeState{Dist: 6, Parent: 1}) {
		t.Error("intermediate states must not satisfy P_reset")
	}
	if b.IsReset(0, net, NodeState{Dist: 0, Parent: NoParent}) {
		t.Error("the root's reset state must not satisfy P_reset at a non-root process")
	}
	if b.IsReset(2, net, NodeState{Dist: 6, Parent: NoParent}) {
		t.Error("a non-root's reset state must not satisfy P_reset at the root")
	}
	// The root's pre-defined state is (0, ⊥); the others start unreached.
	if got := b.InitialInner(2, net).(NodeState); got.Dist != 0 {
		t.Errorf("the root starts at distance 0, got %v", got)
	}
	if got := b.InitialInner(0, net).(NodeState); got.Dist != 6 {
		t.Errorf("non-roots start at maxDist, got %v", got)
	}
}

func TestEnumerateInner(t *testing.T) {
	g := graph.Star(4)
	net := sim.NewNetwork(g)
	b := NewFor(g, 0)
	// (maxDist+1) distances × (degree+1) parents for the centre.
	if got, want := b.InnerStateCount(0, net), 5*4; got != want {
		t.Errorf("centre enumerates %d states, want %d", got, want)
	}
}

func TestICorrectInvariant(t *testing.T) {
	g := graph.Path(3)
	net := sim.NewNetwork(g)
	b := NewFor(g, 0)
	view := func(c *sim.Configuration, u int) core.InnerView {
		return core.NewStandaloneView(net.View(c, u))
	}
	mk := func(states ...NodeState) *sim.Configuration {
		out := make([]sim.State, len(states))
		for i, s := range states {
			out[i] = s
		}
		return sim.NewConfiguration(out)
	}

	// The exact BFS tree is correct everywhere.
	tree := mk(NodeState{0, NoParent}, NodeState{1, 0}, NodeState{2, 1})
	for u := 0; u < 3; u++ {
		if !b.ICorrect(view(tree, u)) {
			t.Errorf("process %d of the exact tree should be I-correct", u)
		}
	}
	// The pre-defined configuration is correct everywhere (Requirement 2d).
	start := mk(NodeState{0, NoParent}, NodeState{3, NoParent}, NodeState{3, NoParent})
	for u := 0; u < 3; u++ {
		if !b.ICorrect(view(start, u)) {
			t.Errorf("process %d of γ_init should be I-correct", u)
		}
	}
	// A corrupted root is incorrect.
	if b.ICorrect(view(mk(NodeState{2, NoParent}, NodeState{3, NoParent}, NodeState{3, NoParent}), 0)) {
		t.Error("a root with a non-zero distance must be I-incorrect")
	}
	// A non-root with a distance smaller than its parent's plus one is
	// incorrect (distance cycles are locally detectable).
	if b.ICorrect(view(mk(NodeState{0, NoParent}, NodeState{1, 2}, NodeState{1, 1}), 1)) {
		t.Error("a process whose distance is not larger than its parent's must be I-incorrect")
	}
	// A dangling parent pointer is incorrect.
	if b.ICorrect(view(mk(NodeState{0, NoParent}, NodeState{1, 9}, NodeState{3, NoParent}), 1)) {
		t.Error("a parent outside the neighbourhood must be I-incorrect")
	}
	// An unreached process with a parent pointer is incorrect only when the
	// parent inequality fails; (maxDist, ⊥) is the only parentless non-root
	// state allowed.
	if b.ICorrect(view(mk(NodeState{0, NoParent}, NodeState{2, NoParent}, NodeState{3, NoParent}), 1)) {
		t.Error("a parentless non-root below maxDist must be I-incorrect")
	}
}

func TestStandaloneBFSBuildsTree(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	topologies := []*graph.Graph{
		graph.Ring(8),
		graph.Path(7),
		graph.Grid(3, 4),
		graph.RandomConnected(12, 0.3, rng),
		graph.Star(9),
	}
	for _, g := range topologies {
		for _, root := range []int{0, g.N() - 1} {
			b := NewFor(g, root)
			alg := core.NewStandalone(b)
			net := sim.NewNetwork(g)
			daemon := sim.NewDistributedRandomDaemon(rand.New(rand.NewSource(int64(root+7))), 0.5)
			res := sim.NewEngine(net, alg, daemon).Run(sim.InitialConfiguration(alg, net), sim.WithMaxSteps(200_000))
			if !res.Terminated {
				t.Fatalf("n=%d root=%d: Algorithm B did not terminate", g.N(), root)
			}
			if err := VerifyTree(g, root, res.Final); err != nil {
				t.Errorf("n=%d root=%d: %v", g.N(), root, err)
			}
			if res.Moves > maxStandaloneMoves(g.N(), b.maxDist) {
				t.Errorf("n=%d root=%d: %d moves exceed the n·maxDist bound", g.N(), root, res.Moves)
			}
		}
	}
}

func TestSelfStabilizingBFSFromCorruptedStates(t *testing.T) {
	// The composition B ∘ SDR is silent and self-stabilizing: from random
	// configurations it terminates in a configuration whose distances and
	// parent pointers form the exact BFS tree.
	rng := rand.New(rand.NewSource(15))
	topologies := []*graph.Graph{
		graph.Ring(7),
		graph.Grid(3, 3),
		graph.RandomConnected(9, 0.35, rng),
	}
	for _, g := range topologies {
		root := g.N() / 2
		comp := NewSelfStabilizing(g, root)
		net := sim.NewNetwork(g)
		for trial := 0; trial < 5; trial++ {
			trialRng := rand.New(rand.NewSource(int64(trial*13 + g.N())))
			start := randomStart(t, comp, net, trialRng)
			daemon := sim.NewDistributedRandomDaemon(trialRng, 0.5)
			res := sim.NewEngine(net, comp, daemon).Run(start, sim.WithMaxSteps(400_000))
			if !res.Terminated {
				t.Fatalf("n=%d trial %d: B∘SDR did not terminate (not silent)", g.N(), trial)
			}
			if err := VerifyTree(g, root, res.Final); err != nil {
				t.Errorf("n=%d trial %d: %v", g.N(), trial, err)
			}
			if res.Rounds > 0 && res.StabilizationRounds > core.MaxResetRounds(g.N())+innerRoundAllowance(g) {
				t.Errorf("n=%d trial %d: suspiciously many rounds (%d)", g.N(), trial, res.StabilizationRounds)
			}
		}
	}
}

// innerRoundAllowance returns the extra-round allowance for the inner
// algorithm: every process improves its distance at most maxDist times and
// each improvement takes at most one round once its neighbourhood is stable.
func innerRoundAllowance(g *graph.Graph) int { return g.N() * g.N() }

func TestSelfStabilizingBFSSurvivesTargetedFaults(t *testing.T) {
	g := graph.Grid(3, 4)
	root := 0
	comp := NewSelfStabilizing(g, root)
	net := sim.NewNetwork(g)
	rng := rand.New(rand.NewSource(44))

	// Converge, then corrupt only the reset machinery, then only the inner
	// states, and re-converge each time.
	daemon := sim.NewDistributedRandomDaemon(rng, 0.5)
	eng := sim.NewEngine(net, comp, daemon)
	res := eng.Run(sim.InitialConfiguration(comp, net), sim.WithMaxSteps(200_000))
	if err := VerifyTree(g, root, res.Final); err != nil {
		t.Fatalf("initial convergence: %v", err)
	}

	waved := faults.FakeResetWave(net, res.Final, 0.5, g.N(), rng)
	res2 := eng.Run(waved, sim.WithMaxSteps(200_000))
	if !res2.Terminated {
		t.Fatal("did not terminate after a fake reset wave")
	}
	if err := VerifyTree(g, root, res2.Final); err != nil {
		t.Errorf("after a fake reset wave: %v", err)
	}

	corrupted, err := faults.CorruptedInner(comp.Inner(), net, res2.Final, 0.6, rng)
	if err != nil {
		t.Fatal(err)
	}
	res3 := eng.Run(corrupted, sim.WithMaxSteps(200_000))
	if !res3.Terminated {
		t.Fatal("did not terminate after inner corruption")
	}
	if err := VerifyTree(g, root, res3.Final); err != nil {
		t.Errorf("after inner corruption: %v", err)
	}
}

func TestExhaustiveConvergenceTinyPath(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive exploration skipped in -short mode")
	}
	g := graph.Path(3)
	root := 0
	comp := NewSelfStabilizing(g, root)
	net := sim.NewNetwork(g)

	perProcess := make([][]sim.State, net.N())
	for u := 0; u < net.N(); u++ {
		perProcess[u] = sim.StateSpace(comp, u, net)
	}
	// The full product of per-process states is ~560k starting
	// configurations; exploring all of them takes ~10s, which dominated the
	// package's test time. By default a deterministic stride sample of the
	// product seeds the exploration — every reachable configuration from a
	// sampled start is still explored exhaustively, so closure and
	// terminal-correctness are checked on the whole reachable sub-space.
	// Every 7th start keeps all three per-process coordinates cycling
	// (7 is coprime with the per-process state counts).
	stride := 7
	idx := 0
	var starts []*sim.Configuration
	for _, a := range perProcess[0] {
		for _, b := range perProcess[1] {
			for _, c := range perProcess[2] {
				if idx%stride == 0 {
					starts = append(starts, sim.NewConfiguration([]sim.State{a, b, c}))
				}
				idx++
			}
		}
	}
	treePredicate := func(c *sim.Configuration) bool { return VerifyTree(g, root, c) == nil }
	report, err := checker.Explore(net, comp, starts, checker.ExploreOptions{
		MaxConfigurations: 800_000,
		Legitimate:        treePredicate,
	})
	if err != nil {
		t.Fatalf("exploration failed: %v", err)
	}
	if !report.Complete {
		t.Fatalf("exploration incomplete after %d configurations", report.Configurations)
	}
	if report.TerminalConfigurations == 0 {
		t.Error("the composition must have reachable terminal configurations (silence)")
	}
}

func TestDistancesParentsAccessors(t *testing.T) {
	cfg := sim.NewConfiguration([]sim.State{
		NodeState{Dist: 0, Parent: NoParent},
		core.ComposedState{SDR: core.CleanSDRState(), Inner: NodeState{Dist: 1, Parent: 0}},
	})
	if d := Distances(cfg); d[0] != 0 || d[1] != 1 {
		t.Errorf("Distances = %v", d)
	}
	if p := Parents(cfg); p[0] != NoParent || p[1] != 0 {
		t.Errorf("Parents = %v", p)
	}
}

func TestVerifyTreeRejectsWrongTrees(t *testing.T) {
	g := graph.Path(3)
	mk := func(states ...NodeState) *sim.Configuration {
		out := make([]sim.State, len(states))
		for i, s := range states {
			out[i] = s
		}
		return sim.NewConfiguration(out)
	}
	good := mk(NodeState{0, NoParent}, NodeState{1, 0}, NodeState{2, 1})
	if err := VerifyTree(g, 0, good); err != nil {
		t.Errorf("the exact tree must verify: %v", err)
	}
	cases := []*sim.Configuration{
		mk(NodeState{0, NoParent}, NodeState{2, 0}, NodeState{2, 1}),        // wrong distance
		mk(NodeState{0, 1}, NodeState{1, 0}, NodeState{2, 1}),               // root with a parent
		mk(NodeState{0, NoParent}, NodeState{1, NoParent}, NodeState{2, 1}), // missing parent
		mk(NodeState{0, NoParent}, NodeState{1, 0}, NodeState{2, 0}),        // parent not a neighbour
		mk(NodeState{0, NoParent}, NodeState{1, 2}, NodeState{2, 1}),        // parent not closer
	}
	for i, cfg := range cases {
		if err := VerifyTree(g, 0, cfg); err == nil {
			t.Errorf("case %d: VerifyTree should reject %s", i, cfg)
		}
	}
}

func TestQuickSelfStabilizationOnRandomTrees(t *testing.T) {
	// Property: on random trees with a random root, B ∘ SDR from a random
	// configuration terminates in the exact BFS (here: the tree itself with
	// correct distances).
	property := func(seed int64, rawN, rawRoot uint8) bool {
		n := int(rawN%8) + 3
		rng := rand.New(rand.NewSource(seed))
		g := graph.RandomTree(n, rng)
		root := int(rawRoot) % n
		comp := NewSelfStabilizing(g, root)
		net := sim.NewNetwork(g)
		start := randomStart(t, comp, net, rng)
		res := sim.NewEngine(net, comp, sim.NewDistributedRandomDaemon(rng, 0.5)).Run(start, sim.WithMaxSteps(300_000))
		return res.Terminated && VerifyTree(g, root, res.Final) == nil
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// maxStandaloneMoves bounds the moves of Algorithm B alone from its
// pre-defined configuration: every move strictly decreases a distance, which
// starts at maxDist and ends at least at 1, so each process moves fewer than
// maxDist times.
func maxStandaloneMoves(n, maxDist int) int { return n * maxDist }
