package sim

import (
	"slices"
	"sync"
)

// Sharded execution. The engine loop (engineRun in engine.go) runs every
// step over a partition of the processes into contiguous index ranges
// ("shards"). WithShards(k) asks for k shards; the per-step work — guard
// re-evaluation and rule execution — then runs concurrently, one goroutine
// per shard. Without sharding the partition is a single shard and every
// phase runs on the calling goroutine: the sequential engine is the
// one-shard case of the same loop. Shards read the topology concurrently
// without synchronization: a graph is immutable, and churn replaces the
// network's graph only at the sequential injection boundary between steps,
// so no shard ever observes a topology mid-edit.
//
// Exactness. Under the SynchronousDaemon a run is bit-identical for every
// shard count: the daemon activates every enabled process, the union of the
// per-shard selections is exactly the global enabled set, rule choice is
// deterministic (FirstEnabledRule; RandomEnabledRule is rejected, see
// Options.validate), and all accounting is merged in ascending shard order.
// The test-only RunReference is the independent oracle: the differential
// tests in shard_test.go compare sharded runs against it and against the
// one-shard run.
//
// Locally-central daemon family. Every other daemon is consulted once per
// shard and step, on the shard's slice of the enabled set, and the step
// activates the union of the per-shard selections. This changes the daemon's
// semantics: a central daemon activates one process per *non-empty shard*
// per step instead of one per step, a round-robin daemon keeps one global
// cursor walked shard by shard, and so on. We call the results the
// "locally-central sharded family" of the base daemons. They remain legal
// schedules of the distributed unfair daemon (every selection is a non-empty
// subset of the enabled set) and are deterministic for a fixed seed and
// shard count, but they are different adversaries than their one-shard
// counterparts — complexity measurements under them are not comparable
// across shard counts.
//
// Shard boundaries are aligned to multiples of 64 so that every bitset word
// belongs to exactly one shard: a shard writes only words in its own range
// during re-evaluation, making the phase race-free without atomics. Writes
// to the touched set, whose closed neighbourhoods cross shard boundaries,
// go to a per-shard full-length bitset instead; the per-word OR-merge of
// those bitsets between the apply and re-evaluation phases is the only
// boundary exchange of a step.

// WithShards sets the number of shards of the run (default 1: one shard on
// the calling goroutine). With k > 1 guard evaluation and rule execution run
// concurrently on k contiguous node ranges. Synchronous-daemon runs are
// bit-identical for every k; all other daemons switch to the documented
// locally-central sharded family (one Select call per non-empty shard per
// step). Sharding is incompatible with RandomEnabledRule and with WithMemo;
// Options.validate reports both combinations as errors. Shard counts larger
// than ⌈n/64⌉ are silently capped (boundaries are 64-aligned so that bitset
// words have a single writer); a run capped to one shard still reports the
// sharded phase names to a profiler (see WithProfiler).
func WithShards(k int) Option {
	return func(o *Options) { o.shards = k }
}

// engineShard is the per-shard state of a run.
type engineShard struct {
	idx            int // position in the shard slice
	lo, hi         int // node range [lo, hi)
	wordLo, wordHi int // bitset word range [wordLo, wordHi), exclusively owned

	// touched marks the closed neighbourhoods of this shard's activated
	// processes. It is full-length: neighbours of a boundary process live in
	// other shards' ranges, and routing those marks through a private bitset
	// is what keeps the apply phase free of cross-shard writes.
	touched bitset

	// selected is the shard's sanitized selection of the current step,
	// staged in the shard's node range of the run's selection buffer.
	selected []int

	// ruleScratch is chooseRule's reusable buffer.
	ruleScratch []int
}

// makeShards partitions [0, n) into at most k word-aligned contiguous
// ranges. Every shard is non-empty; the effective count is min(k, ⌈n/64⌉).
func makeShards(n, k int) []engineShard {
	words := (n + 63) / 64
	if k > words {
		k = words
	}
	if k < 1 {
		k = 1
	}
	shards := make([]engineShard, k)
	for s := range shards {
		wordLo := s * words / k
		wordHi := (s + 1) * words / k
		lo := wordLo * 64
		hi := wordHi * 64
		if hi > n {
			hi = n
		}
		shards[s] = engineShard{
			idx: s,
			lo:  lo, hi: hi,
			wordLo: wordLo, wordHi: wordHi,
			touched: newBitset(n),
		}
	}
	return shards
}

// parallel runs phase once per shard, concurrently, and waits for all of
// them. The first shard runs on the calling goroutine, so a one-shard run
// never leaves it and allocates nothing here.
func (r *engineRun) parallel(phase func(*engineRun, *engineShard)) {
	if len(r.shards) == 1 {
		phase(r, &r.shards[0])
		return
	}
	var wg sync.WaitGroup
	wg.Add(len(r.shards) - 1)
	for s := 1; s < len(r.shards); s++ {
		go func(sh *engineShard) {
			defer wg.Done()
			phase(r, sh)
		}(&r.shards[s])
	}
	phase(r, &r.shards[0])
	wg.Wait()
}

// sanitizeShardSelectionInto is the allocation-free selection sanitizer of
// the hot loop: it appends to out the processes of the daemon's selection
// that are enabled and lie in the shard's node range [lo, hi),
// de-duplicated (via the dedup scratch bitset, left cleared) and sorted. A
// process can only be applied by the shard owning its state segment —
// accepting a foreign index would make two shards write the same
// double-buffer segment concurrently. When the daemon misbehaves and
// returns an empty or fully invalid selection, the shard's first enabled
// process is used so that the run always makes progress (matching the
// "distributed" requirement that at least one enabled process moves).
func sanitizeShardSelectionInto(out, selected []int, lo, hi int, enabledBits, dedup bitset, enabled []int) []int {
	for _, u := range selected {
		if u < lo || u >= hi || !enabledBits.get(u) || dedup.get(u) {
			continue
		}
		dedup.set(u)
		out = append(out, u)
	}
	for _, u := range out {
		dedup.clear(u)
	}
	if len(out) == 0 {
		return append(out, enabled[0])
	}
	slices.Sort(out)
	return out
}
