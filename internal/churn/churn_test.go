package churn

import (
	"math/rand"
	"reflect"
	"testing"

	"sdr/internal/graph"
	"sdr/internal/sim"
)

// intState is a minimal enumerable test state.
type intState int

func (s intState) Equal(other sim.State) bool { o, ok := other.(intState); return ok && s == o }
func (s intState) String() string             { return "x" }

// fakeAlg is a minimal enumerable algorithm for injector tests.
type fakeAlg struct{}

func (fakeAlg) Name() string { return "fake" }
func (fakeAlg) Rules() []sim.Rule {
	return []sim.Rule{{
		Name:   "inc",
		Guard:  func(v sim.View) bool { return v.Self().(intState) < 2 },
		Action: func(v sim.View) sim.State { return v.Self().(intState) + 1 },
	}}
}
func (fakeAlg) InitialState(u int, net *sim.Network) sim.State { return intState(0) }
func (fakeAlg) StateCount(int, *sim.Network) int               { return 3 }
func (fakeAlg) StateAt(_ int, _ *sim.Network, i int) sim.State { return intState(i) }

// bareAlg is fakeAlg without state enumeration (no embedding: promoted
// methods would make it sim.Enumerable again).
type bareAlg struct{}

func (bareAlg) Name() string                                   { return "bare" }
func (bareAlg) Rules() []sim.Rule                              { return fakeAlg{}.Rules() }
func (bareAlg) InitialState(u int, net *sim.Network) sim.State { return intState(0) }

var _ sim.Enumerable = fakeAlg{}

func ringNet(n int) *sim.Network { return sim.NewNetwork(graph.Ring(n)) }

func TestParseRoundTrip(t *testing.T) {
	cases := []string{
		"periodic",
		"poisson:events=6,every=150",
		"burst:burst=2,every=400,kinds=corrupt-processes,count=2",
		"adversarial:every=250,kinds=node-crash",
		"periodic:events=4,every=100,kinds=partition+heal",
	}
	for _, spec := range cases {
		s, err := Parse(spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", spec, err)
		}
		again, err := Parse(s.String())
		if err != nil {
			t.Fatalf("Parse(String(%q)=%q): %v", spec, s.String(), err)
		}
		if !reflect.DeepEqual(s, again) {
			t.Errorf("Parse(%q) round-trip mismatch:\n first %+v\nsecond %+v", spec, s, again)
		}
	}
}

func TestParseRejectsMalformedSpecs(t *testing.T) {
	for _, spec := range []string{
		"tidal",                        // unknown pattern
		"periodic:every",               // missing value
		"periodic:every=ten",           // non-integer
		"periodic:cadence=5",           // unknown key
		"periodic:kinds=meteor-strike", // unknown kind
		"periodic:fraction=1.5",        // out of range
		"periodic:events=0",            // no events
	} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q): expected error, got none", spec)
		}
	}
}

func TestScheduleTimesDeterministic(t *testing.T) {
	for _, pattern := range []Pattern{Periodic, Poisson, BurstPattern, Adversarial} {
		s := Schedule{Pattern: pattern, Events: 8}.withDefaults()
		a := s.times(rand.New(rand.NewSource(7)))
		b := s.times(rand.New(rand.NewSource(7)))
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed produced different times: %v vs %v", pattern, a, b)
		}
		if len(a) != s.Events {
			t.Errorf("%s: got %d times for %d events", pattern, len(a), s.Events)
		}
		for i := 1; i < len(a); i++ {
			if a[i] < a[i-1] {
				t.Errorf("%s: times not sorted: %v", pattern, a)
			}
		}
	}
	// Poisson arrivals must actually depend on the seed.
	s := Schedule{Pattern: Poisson, Events: 8}.withDefaults()
	a := s.times(rand.New(rand.NewSource(1)))
	b := s.times(rand.New(rand.NewSource(2)))
	if reflect.DeepEqual(a, b) {
		t.Errorf("poisson: different seeds produced identical times %v", a)
	}
}

func TestNewInjectorValidatesRequirements(t *testing.T) {
	net := ringNet(6)
	rng := rand.New(rand.NewSource(1))
	if _, err := NewInjector(Schedule{Pattern: Periodic, EventKinds: []Kind{CorruptFraction}}, bareAlg{}, nil, net, rng); err == nil {
		t.Errorf("corrupt-fraction on a non-enumerable algorithm: expected error")
	}
	if _, err := NewInjector(Schedule{Pattern: Periodic, EventKinds: []Kind{FakeResetWave}}, fakeAlg{}, nil, net, rng); err == nil {
		t.Errorf("fake-reset-wave on a non-composed algorithm: expected error")
	}
	if _, err := NewInjector(Schedule{Pattern: Periodic, EventKinds: []Kind{NodeCrash}}, bareAlg{}, nil, net, rng); err != nil {
		t.Errorf("node-crash needs no capabilities, got error: %v", err)
	}
}

func TestDroppableEdgesKeepConnectivity(t *testing.T) {
	net := ringNet(8) // every ring edge is a bridge once one is gone
	inj, err := NewInjector(Schedule{Pattern: Periodic, EventKinds: []Kind{EdgeDrop}, Count: 3}, fakeAlg{}, nil, net, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	p := sim.InjectionPoint{Net: net, Config: sim.InitialConfiguration(fakeAlg{}, net)}
	drops := inj.droppableEdges(p, 3)
	if len(drops) != 1 {
		t.Fatalf("on a ring exactly one edge is removable without disconnecting; got %v", drops)
	}
	probe, err := net.Graph().WithEdits(drops, nil)
	if err != nil || !probe.Connected() {
		t.Fatalf("dropping %v disconnects the ring (err %v)", drops[0], err)
	}
}

// scriptedInjector fires a fixed list of events, one per boundary, built by
// the wrapped churn injector from the point the engine hands it, and keeps
// the topology each boundary observed.
type scriptedInjector struct {
	inj    *Injector
	kinds  []Kind
	events []*sim.Injection
	seen   []*graph.Graph
}

func (s *scriptedInjector) Inject(p sim.InjectionPoint) *sim.Injection {
	if len(s.events) == len(s.kinds) {
		return nil
	}
	s.seen = append(s.seen, p.Net.Graph())
	injn := s.inj.build(s.kinds[len(s.events)], p)
	s.events = append(s.events, injn)
	return injn
}

func (s *scriptedInjector) Done() bool { return len(s.events) == len(s.kinds) }

func TestPartitionHealRoundTrip(t *testing.T) {
	net := ringNet(8)
	inj, err := NewInjector(Schedule{Pattern: Periodic, Events: 2, EventKinds: []Kind{Partition, Heal}}, fakeAlg{}, nil, net, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	script := &scriptedInjector{inj: inj, kinds: []Kind{Partition, Heal, Heal}}
	engine := sim.NewEngine(net, fakeAlg{}, sim.SynchronousDaemon{})
	if _, err := engine.RunE(sim.InitialConfiguration(fakeAlg{}, net), sim.WithInjector(script)); err != nil {
		t.Fatal(err)
	}
	ring := script.seen[0]
	part, heal, second := script.events[0], script.events[1], script.events[2]
	if len(part.DropEdges) == 0 {
		t.Fatalf("partition produced no cut on a ring")
	}
	if script.seen[1].Connected() {
		t.Fatalf("removing the cut %v left the ring connected", part.DropEdges)
	}
	if !reflect.DeepEqual(heal.AddEdges, part.DropEdges) {
		t.Errorf("heal re-adds %v, partition dropped %v", heal.AddEdges, part.DropEdges)
	}
	if !script.seen[2].Equal(ring) || !net.Graph().Equal(ring) {
		t.Fatalf("healed topology differs from the ring")
	}
	if len(second.AddEdges) != 0 {
		t.Errorf("second heal without an open partition re-added %v", second.AddEdges)
	}
}
