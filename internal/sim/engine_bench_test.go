package sim

import (
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"

	"sdr/internal/graph"
)

// The engine micro-benchmarks measure the cost of the stepping hot loop
// itself, independent of any concrete paper algorithm: ticker keeps every
// process permanently enabled (steady-state stepping, bounded by
// WithMaxSteps), and maxPropagation exercises a shrinking enabled set until
// termination. Each benchmark reports allocations so regressions of the
// allocation-free loop are caught by inspection.

func benchmarkEngineRun(b *testing.B, run func(e *Engine, start *Configuration, opts ...Option) Result, alg Algorithm, g *graph.Graph, newDaemon func() Daemon, opts ...Option) {
	b.Helper()
	net := NewNetwork(g)
	start := InitialConfiguration(alg, net)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := NewEngine(net, alg, newDaemon())
		res := run(eng, start, opts...)
		if res.Steps == 0 {
			b.Fatal("benchmark run took no steps")
		}
	}
}

func runIncremental(e *Engine, start *Configuration, opts ...Option) Result {
	return e.Run(start, opts...)
}

func runReference(e *Engine, start *Configuration, opts ...Option) Result {
	return e.RunReference(start, opts...)
}

// BenchmarkEngineStepsSynchronous measures steady-state stepping with every
// process enabled in every step (ticker under the synchronous daemon).
func BenchmarkEngineStepsSynchronous(b *testing.B) {
	benchmarkEngineRun(b, runIncremental, ticker{}, graph.Ring(64),
		func() Daemon { return SynchronousDaemon{} }, WithMaxSteps(1000))
}

// BenchmarkEngineStepsSynchronousReference is the same workload on the
// retained reference engine, for before/after comparison.
func BenchmarkEngineStepsSynchronousReference(b *testing.B) {
	benchmarkEngineRun(b, runReference, ticker{}, graph.Ring(64),
		func() Daemon { return SynchronousDaemon{} }, WithMaxSteps(1000))
}

// BenchmarkEngineStepsCentral measures stepping under a central daemon, where
// only one process moves per step and incremental enabled-set maintenance
// touches a single neighbourhood.
func BenchmarkEngineStepsCentral(b *testing.B) {
	benchmarkEngineRun(b, runIncremental, ticker{}, graph.Ring(64),
		func() Daemon { return NewCentralRandomDaemon(rand.New(rand.NewSource(7))) },
		WithMaxSteps(1000))
}

// BenchmarkEngineStepsCentralReference is the reference-engine counterpart.
func BenchmarkEngineStepsCentralReference(b *testing.B) {
	benchmarkEngineRun(b, runReference, ticker{}, graph.Ring(64),
		func() Daemon { return NewCentralRandomDaemon(rand.New(rand.NewSource(7))) },
		WithMaxSteps(1000))
}

// BenchmarkEngineMaxPropagation runs a terminating algorithm (max
// propagation on a grid) to completion, covering the shrinking-enabled-set
// and round-accounting paths.
func BenchmarkEngineMaxPropagation(b *testing.B) {
	benchmarkEngineRun(b, runIncremental, maxPropagation{}, graph.Grid(8, 8),
		func() Daemon { return NewDistributedRandomDaemon(rand.New(rand.NewSource(3)), 0.5) })
}

// BenchmarkEngineMaxPropagationReference is the reference-engine counterpart.
func BenchmarkEngineMaxPropagationReference(b *testing.B) {
	benchmarkEngineRun(b, runReference, maxPropagation{}, graph.Grid(8, 8),
		func() Daemon { return NewDistributedRandomDaemon(rand.New(rand.NewSource(3)), 0.5) })
}

// BenchmarkEngineGreedyAdversarial exercises the greedy adversarial daemon's
// lookahead (neighbourhood-scoped in the current engine).
func BenchmarkEngineGreedyAdversarial(b *testing.B) {
	benchmarkEngineRun(b, runIncremental, maxPropagation{}, graph.Grid(6, 6),
		func() Daemon { return NewGreedyAdversarialDaemon(rand.New(rand.NewSource(5))) })
}

// BenchmarkEngineGreedyAdversarialReference is the reference-engine
// counterpart (full-rescan lookahead cost shows up here only through the
// engine loop; the daemon itself is shared).
func BenchmarkEngineGreedyAdversarialReference(b *testing.B) {
	benchmarkEngineRun(b, runReference, maxPropagation{}, graph.Grid(6, 6),
		func() Daemon { return NewGreedyAdversarialDaemon(rand.New(rand.NewSource(5))) })
}

// TestSteadyStateAllocationFree pins the allocation-free steady state of the
// one-shard engine loop: doubling the step budget of a run must not add a
// single allocation — synchronous plain, with a memo attached, and deciding
// a legitimacy predicate every step, statically (it never holds) and under
// an injector (it always holds), and under every standard daemon. Per-step
// allocations (a closure built per phase, a buffer regrown per step, a
// selection or permutation built per step) fail it.
func TestSteadyStateAllocationFree(t *testing.T) {
	if raceEnabled() {
		t.Skip("allocation counts are not meaningful under the race detector: its instrumentation allocates on the memoized path")
	}
	net := NewNetwork(graph.Ring(256))
	start := InitialConfiguration(ticker{}, net)
	last := net.N() - 1
	const k = 200
	synchronous := func() Daemon { return SynchronousDaemon{} }
	cases := []struct {
		name   string
		daemon func() Daemon
		opts   func() []Option
	}{
		{"plain", synchronous, func() []Option { return nil }},
		{"memo", synchronous, func() []Option { return []Option{WithMemo(NewMemoShare(1 << 10))} }},
		{"legit-static", synchronous, func() []Option {
			return []Option{WithLegitimate(func(v View) bool { return v.Process() != last })}
		}},
		{"legit-injected", synchronous, func() []Option {
			return []Option{WithLegitimate(func(View) bool { return true }), WithInjector(quietInjector{})}
		}},
		{"distributed-random", func() Daemon {
			return NewDistributedRandomDaemon(rand.New(rand.NewSource(1)), 0.5)
		}, func() []Option { return nil }},
		{"central-random", func() Daemon {
			return NewCentralRandomDaemon(rand.New(rand.NewSource(1)))
		}, func() []Option { return nil }},
		{"round-robin", func() Daemon { return NewRoundRobinDaemon() }, func() []Option { return nil }},
		{"greedy-adversarial", func() Daemon {
			return NewGreedyAdversarialDaemon(rand.New(rand.NewSource(1)))
		}, func() []Option { return nil }},
		{"locally-central", func() Daemon {
			return NewLocallyCentralDaemon(rand.New(rand.NewSource(1)))
		}, func() []Option { return nil }},
	}
	for _, c := range cases {
		allocs := func(steps int) float64 {
			// A collection inside the measured runs can add a malloc;
			// starting from a collected heap leaves none of them room to.
			runtime.GC()
			return testing.AllocsPerRun(5, func() {
				opts := append([]Option{WithMaxSteps(steps)}, c.opts()...)
				res := NewEngine(net, ticker{}, c.daemon()).Run(start, opts...)
				if res.Steps != steps || (c.name == "memo") != (res.Memo.Lookups() > 0) {
					t.Fatalf("%s: ran %d steps (want %d) with %d memo lookups", c.name, res.Steps, steps, res.Memo.Lookups())
				}
			})
		}
		if once, twice := allocs(k), allocs(2*k); twice > once {
			t.Errorf("%s: %d steps allocate %v times, %d steps %v times", c.name, k, once, 2*k, twice)
		}
	}
}

// raceEnabled reports whether the test binary was built with -race.
func raceEnabled() bool {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" {
				return s.Value == "true"
			}
		}
	}
	return false
}
