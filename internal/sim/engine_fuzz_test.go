package sim_test

import (
	"fmt"
	"testing"

	"sdr/internal/sim"
)

// FuzzEngineMatchesReference extends the differential sweep of
// TestEngineMatchesReference from fixed seeds to fuzzed ones: for a
// workload of diffWorkloads(seed) and a standard daemon, Run must equal the
// RunReference oracle bit for bit, and a run asked for k shards must equal
// the one-shard run. The workloads have fewer than 64 processes, so the
// ⌈n/64⌉ cap runs that k-shard request on one shard;
// TestShardedBitIdentical covers real partitions. When the workload's
// algorithm implements sim.RuleIndexer (the SDR compositions), its
// FirstEnabled must also equal the first enabled Guard at every process of
// the start and final configurations. The committed corpus under
// testdata/fuzz covers every workload and daemon.
func FuzzEngineMatchesReference(f *testing.F) {
	f.Add(uint32(1), uint8(0), uint8(0), uint8(1))
	f.Add(uint32(2), uint8(1), uint8(2), uint8(1))
	f.Add(uint32(3), uint8(4), uint8(5), uint8(3))
	factories := sim.StandardDaemonFactories()
	f.Fuzz(func(t *testing.T, seed32 uint32, workload, daemon, shards uint8) {
		seed := int64(seed32)
		ws := diffWorkloads(t, seed)
		w := ws[int(workload)%len(ws)]
		df := factories[int(daemon)%len(factories)]
		k := 1 + int(shards)%3
		label := fmt.Sprintf("%s/%s", w.name, df.Name)
		inc := sim.NewEngine(w.net, w.alg, df.New(seed)).Run(w.start, w.opts...)
		ref := sim.NewEngine(w.net, w.alg, df.New(seed)).RunReference(w.start, w.opts...)
		assertResultsIdentical(t, label, inc, ref)
		assertIndexerMatchesGuards(t, label+"/start", w.alg, w.net, w.start)
		assertIndexerMatchesGuards(t, label+"/final", w.alg, w.net, ref.Final)
		shardOpts := append(append([]sim.Option(nil), w.opts...), sim.WithShards(k))
		sharded, err := sim.NewEngine(w.net, w.alg, df.New(seed)).RunE(w.start, shardOpts...)
		if err != nil {
			t.Fatalf("%s/shards=%d: %v", label, k, err)
		}
		assertResultsIdentical(t, fmt.Sprintf("%s/shards=%d", label, k), sharded, inc)
	})
}

// assertIndexerMatchesGuards checks, when alg implements sim.RuleIndexer,
// that FirstEnabled returns the index of the first rule whose Guard holds at
// every process of c.
func assertIndexerMatchesGuards(t *testing.T, label string, alg sim.Algorithm, net *sim.Network, c *sim.Configuration) {
	t.Helper()
	ix, ok := alg.(sim.RuleIndexer)
	if !ok {
		return
	}
	rules := alg.Rules()
	for u := 0; u < net.N(); u++ {
		v := net.View(c, u)
		want := -1
		for i := range rules {
			if rules[i].Guard(v) {
				want = i
				break
			}
		}
		if got := ix.FirstEnabled(v); got != want {
			t.Fatalf("%s: FirstEnabled(%d) = %d, first enabled guard %d", label, u, got, want)
		}
	}
}
