package sim

import (
	"fmt"
	"math/rand"
	"testing"

	"sdr/internal/graph"
)

// Entries returns the number of cached neighbourhoods.
func (t *MemoTable) Entries() int { return t.entries }

func TestPackKey(t *testing.T) {
	if key, ok := packKey([]uint64{5}); !ok || key != 5 {
		t.Fatalf("single component: key=%d ok=%v, want 5 true", key, ok)
	}
	// A single component uses the full 64 bits.
	if key, ok := packKey([]uint64{1 << 63}); !ok || key != 1<<63 {
		t.Fatalf("wide single component: key=%d ok=%v, want 1<<63 true", key, ok)
	}
	if key, ok := packKey([]uint64{1, 2}); !ok || key != 1<<32|2 {
		t.Fatalf("two components: key=%#x ok=%v, want 1<<32|2 true", key, ok)
	}
	// A component exceeding its field spills.
	if _, ok := packKey([]uint64{1 << 32, 0}); ok {
		t.Fatal("oversized component packed")
	}
	// More than 64 components leave zero bits per component.
	if _, ok := packKey(make([]uint64, 65)); ok {
		t.Fatal("65 components packed")
	}
	// Distinct component sequences of the same length pack to distinct keys.
	a, _ := packKey([]uint64{1, 2, 3})
	b, _ := packKey([]uint64{3, 2, 1})
	if a == b {
		t.Fatal("order-sensitive components collided")
	}
}

func TestMemoTableCapAndFreeze(t *testing.T) {
	tab := newMemoTable("a", 4, false, 2)
	var buf []byte
	var ok bool
	if ok, buf = tab.insert(1, []uint64{1, 2}, 0b101, buf); !ok {
		t.Fatal("first insert refused")
	}
	if ok, buf = tab.insert(1, []uint64{1, 3}, 0b010, buf); !ok {
		t.Fatal("second insert refused")
	}
	if ok, buf = tab.insert(1, []uint64{1, 4}, 0b001, buf); ok {
		t.Fatal("insert past the entry cap accepted")
	}
	if tab.Entries() != 2 {
		t.Fatalf("Entries = %d, want 2", tab.Entries())
	}
	var mask uint64
	if mask, ok, buf = tab.lookup(1, []uint64{1, 2}, buf); !ok || mask != 0b101 {
		t.Fatalf("lookup after cap: mask=%b ok=%v, want 101 true", mask, ok)
	}
	if _, ok, buf = tab.lookup(1, []uint64{1, 4}, buf); ok {
		t.Fatal("uncached key found")
	}
	if _, ok, buf = tab.lookup(2, []uint64{1, 2}, buf); ok {
		t.Fatal("degree classes not segregated")
	}
	tab.frozen = true
	if ok, _ = tab.insert(3, []uint64{9}, 1, buf); ok {
		t.Fatal("insert into frozen table accepted")
	}
}

func TestMemoTableSpillPath(t *testing.T) {
	tab := newMemoTable("a", 4, false, 0)
	wide := []uint64{1 << 40, 1 << 41, 7} // cannot pack: 3 components, 21 bits each
	var buf []byte
	var ok bool
	if ok, buf = tab.insert(2, wide, 0b11, buf); !ok {
		t.Fatal("spill insert refused")
	}
	var mask uint64
	if mask, ok, _ = tab.lookup(2, wide, buf); !ok || mask != 0b11 {
		t.Fatalf("spill lookup: mask=%b ok=%v, want 11 true", mask, ok)
	}
}

func TestMemoTableCompatible(t *testing.T) {
	tab := newMemoTable("alg", 4, true, 0)
	if !tab.compatible("alg", 4, true) {
		t.Fatal("table incompatible with its own shape")
	}
	if tab.compatible("other", 4, true) || tab.compatible("alg", 5, true) || tab.compatible("alg", 4, false) {
		t.Fatal("mismatched shape reported compatible")
	}
	var nilTab *MemoTable
	if nilTab.compatible("alg", 4, true) {
		t.Fatal("nil table reported compatible")
	}
}

func TestMemoShareDonateFirstWins(t *testing.T) {
	share := NewMemoShare(0)
	if share.Frozen() != nil {
		t.Fatal("fresh share already frozen")
	}
	first := newMemoTable("a", 1, false, 0)
	second := newMemoTable("a", 1, false, 0)
	if !share.donate(first) {
		t.Fatal("first donation rejected")
	}
	if share.donate(second) {
		t.Fatal("second donation accepted")
	}
	if share.Frozen() != first {
		t.Fatal("frozen table is not the first donation")
	}
	if !first.frozen || !second.frozen {
		t.Fatal("donated tables not marked frozen")
	}
}

func TestZigzag(t *testing.T) {
	cases := map[int]uint64{0: 0, -1: 1, 1: 2, -2: 3, 2: 4}
	for v, want := range cases {
		if got := ZigZag64(v); got != want {
			t.Errorf("ZigZag64(%d) = %d, want %d", v, got, want)
		}
	}
}

func TestMemoStats(t *testing.T) {
	s := MemoStats{Hits: 3, Misses: 1, Fills: 1}
	if s.Lookups() != 4 {
		t.Fatalf("Lookups = %d, want 4", s.Lookups())
	}
	if s.HitRate() != 0.75 {
		t.Fatalf("HitRate = %v, want 0.75", s.HitRate())
	}
	if (MemoStats{}).HitRate() != 0 {
		t.Fatal("empty HitRate != 0")
	}
	s.Add(MemoStats{Hits: 1, Misses: 2, Fills: 1, Bypasses: 1})
	if s != (MemoStats{Hits: 4, Misses: 3, Fills: 2, Bypasses: 1}) {
		t.Fatalf("Add: %+v", s)
	}
}

func TestAlgorithmUsesIdentifiersDefault(t *testing.T) {
	if !AlgorithmUsesIdentifiers(maxPropagation{}) {
		t.Fatal("algorithm without a declaration not treated as identified")
	}
}

// manyRules is an unmemoizable algorithm: more rules than fit the bitmask.
type manyRules struct{ n int }

func (a manyRules) Name() string { return fmt.Sprintf("many-rules(%d)", a.n) }
func (a manyRules) Rules() []Rule {
	rules := make([]Rule, a.n)
	for i := range rules {
		rules[i] = Rule{
			Name:   fmt.Sprintf("r%d", i),
			Guard:  func(View) bool { return false },
			Action: func(v View) State { return v.Self() },
		}
	}
	return rules
}
func (a manyRules) InitialState(int, *Network) State { return intState{} }

func TestNewMemoEvaluatorTooManyRules(t *testing.T) {
	net := NewNetwork(graph.Ring(4))
	if m := NewMemoEvaluator(NewEvaluator(manyRules{n: 65}, net), nil); m != nil {
		t.Fatal("65-rule algorithm memoized")
	}
	if m := NewMemoEvaluator(NewEvaluator(manyRules{n: 64}, net), nil); m == nil {
		t.Fatal("64-rule algorithm refused")
	}
}

// TestMemoEvaluatorMatchesEvaluator cross-checks every memoized answer
// against the direct evaluator on random configurations, revisiting each
// configuration so both the miss and the hit path are exercised.
func TestMemoEvaluatorMatchesEvaluator(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := graph.RandomConnected(9, 0.4, rng)
	net := NewNetwork(g)
	ev := NewEvaluator(maxPropagation{}, net)
	m := NewMemoEvaluator(ev, nil)
	if m == nil {
		t.Fatal("NewMemoEvaluator returned nil")
	}
	configs := make([]*Configuration, 8)
	for i := range configs {
		states := make([]State, net.N())
		for u := range states {
			states[u] = intState{v: rng.Intn(4)}
		}
		configs[i] = NewConfiguration(states)
	}
	for pass := 0; pass < 2; pass++ {
		for _, c := range configs {
			m.InvalidateAll() // switching configurations invalidates the id mirror
			for u := 0; u < net.N(); u++ {
				mask := m.Mask(c, u)
				var want uint64
				if ev.Enabled(c, u) {
					want = 1 // maxPropagation has a single rule
				}
				if mask != want {
					t.Fatalf("pass %d config %v u %d: mask %b, want %b", pass, c, u, mask, want)
				}
				if got, ref := m.Enabled(c, u), ev.Enabled(c, u); got != ref {
					t.Fatalf("Enabled(%d) = %v, evaluator %v", u, got, ref)
				}
				first, ref := m.FirstEnabledRule(c, u), ev.FirstEnabledRule(c, u)
				if first != ref {
					t.Fatalf("FirstEnabledRule(%d) = %d, evaluator %d", u, first, ref)
				}
			}
		}
	}
	st := m.Stats()
	if st.Lookups() != st.Hits+st.Misses {
		t.Fatalf("Lookups() inconsistent: %+v", st)
	}
	if st.Misses != st.Fills+st.Bypasses {
		t.Fatalf("misses not split into fills+bypasses: %+v", st)
	}
	if st.Hits == 0 {
		t.Fatalf("revisited configurations produced no hits: %+v", st)
	}
	if st.Bypasses != 0 {
		t.Fatalf("unexpected bypasses under the default cap: %+v", st)
	}
}

// TestMemoShareAcrossRuns drives the engine twice against one share: the
// first run donates its table and the second answers mostly from it, with
// results identical to an unmemoized run.
func TestMemoShareAcrossRuns(t *testing.T) {
	g := graph.RandomConnected(10, 0.3, rand.New(rand.NewSource(3)))
	net := NewNetwork(g)
	alg := maxPropagation{}
	start := InitialConfiguration(alg, net)
	df := StandardDaemonFactories()[0]

	share := NewMemoShare(0)
	run := func(opts ...Option) Result {
		return NewEngine(net, alg, df.New(5)).Run(start, opts...)
	}
	plain := run(WithMaxSteps(10_000))
	first := run(WithMaxSteps(10_000), WithMemo(share))
	if share.Frozen() == nil {
		t.Fatal("first run did not donate its table")
	}
	if first.Memo.Fills == 0 {
		t.Fatalf("first run filled nothing: %+v", first.Memo)
	}
	second := run(WithMaxSteps(10_000), WithMemo(share))
	if second.Memo.Hits == 0 {
		t.Fatalf("second run hit nothing: %+v", second.Memo)
	}
	if second.Memo.HitRate() < first.Memo.HitRate() {
		t.Fatalf("hit rate did not improve: first %+v second %+v", first.Memo, second.Memo)
	}
	for _, r := range []Result{first, second} {
		if r.Steps != plain.Steps || r.Moves != plain.Moves || r.Rounds != plain.Rounds ||
			!r.Final.Equal(plain.Final) {
			t.Fatalf("memoized run diverged from plain run: %+v vs %+v", r, plain)
		}
	}
	if plain.Memo != (MemoStats{}) {
		t.Fatalf("unmemoized run reported memo stats: %+v", plain.Memo)
	}
}

// TestMemoEntryCapBypasses caps the table at one entry and checks that the
// overflow degrades to counted bypasses, not wrong answers.
func TestMemoEntryCapBypasses(t *testing.T) {
	g := graph.RandomConnected(10, 0.3, rand.New(rand.NewSource(3)))
	net := NewNetwork(g)
	alg := maxPropagation{}
	start := InitialConfiguration(alg, net)
	df := StandardDaemonFactories()[0]

	plain := NewEngine(net, alg, df.New(5)).Run(start, WithMaxSteps(10_000))
	capped := NewEngine(net, alg, df.New(5)).Run(start,
		WithMaxSteps(10_000), WithMemo(NewMemoShare(1)))
	if capped.Memo.Bypasses == 0 {
		t.Fatalf("cap of 1 produced no bypasses: %+v", capped.Memo)
	}
	if capped.Memo.Fills > 1 {
		t.Fatalf("cap of 1 exceeded: %+v", capped.Memo)
	}
	if capped.Steps != plain.Steps || capped.Moves != plain.Moves || !capped.Final.Equal(plain.Final) {
		t.Fatal("capped memoized run diverged from plain run")
	}
}
