package sim

import (
	"slices"
	"sync"
)

// Sharded execution. The engine loop (engineRun in engine.go) runs every
// step over a partition of the processes into contiguous index ranges
// ("shards"). WithShards(k) asks for k shards; every per-process part of a
// step except the daemon's Select — rule execution and move counting, guard
// re-evaluation, the round's neutralizations and the shard's block of the
// next enabled list — then runs concurrently, one goroutine per shard. The
// sequential rest of a step is O(shards) or O(1): splitting the selection,
// compacting the enabled list, swapping the buffers and closing the round,
// besides hooks and legitimacy. Without sharding the partition is a single
// shard and every phase runs on the calling goroutine: the sequential engine
// is the one-shard case of the same loop. Shards read the topology
// concurrently without synchronization: a graph is immutable, and churn
// replaces the network's graph only at the sequential injection boundary
// between steps, so no shard ever observes a topology mid-edit.
//
// Exactness. Selection is sequential and global: the daemon is consulted
// once per step on the whole sorted enabled list, exactly as in a one-shard
// run, and each shard then executes its contiguous block of the sorted
// selection. Every activated process executes its first enabled rule, every
// counter a shard writes is its own (per-process entries of its range, its
// own per-rule counters) or is summed in shard order, and the enabled list
// is the concatenation of the shards' ascending blocks, so a run is
// bit-identical for every shard count under every daemon. The test-only
// RunReference is the independent oracle: the differential tests in
// shard_test.go compare sharded runs against it and against the one-shard
// run.
//
// Shard boundaries are aligned to multiples of 64 so that every bitset word
// belongs to exactly one shard: a shard writes only words in its own range
// during re-evaluation, making the phase race-free without atomics. The
// per-process rule cache (engineRun.firstRule), the move counters, the
// pending words and the enabled-list buffer follow the same rule: a shard
// writes the entries of its own range, and its apply phase reads only those
// entries. Writes to the touched set, whose closed neighbourhoods cross
// shard boundaries, go to a per-shard full-length bitset instead; the
// per-word OR-merge of those bitsets between the apply and re-evaluation
// phases is the only boundary exchange of a step.

// WithShards sets the number of shards of the run (default 1: one shard on
// the calling goroutine). With k > 1 guard evaluation and rule execution run
// concurrently on k contiguous node ranges; the run is bit-identical for
// every k. Sharding is incompatible with WithMemo; Options.validate reports
// the combination as an error. Shard
// counts larger than ⌈n/64⌉ are silently capped (boundaries are 64-aligned
// so that bitset words have a single writer); a run capped to one shard
// still reports the sharded phase names to a profiler (see WithProfiler).
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

	// selected is the shard's block of the step's sorted selection, and off
	// its position in the run's selection and rule buffers.
	selected []int
	off      int

	// ruleMoves counts the shard's moves per rule index over the whole run;
	// the run folds every shard's counters into Result.MovesPerRule.
	ruleMoves []int
	// enabled is the length of the shard's block of the enabled list, and
	// pendingLeft whether a process of its range is still pending in the
	// round, both as of the last re-evaluation.
	enabled     int
	pendingLeft bool
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

// sanitizeSelectionInto is the allocation-free selection sanitizer of the
// hot loop: it appends to out the processes of the daemon's selection that
// are enabled, de-duplicated (via the dedup scratch bitset, left cleared)
// and sorted. When the daemon misbehaves and returns an empty or fully
// invalid selection, the first enabled process is used so that the run
// always makes progress (matching the "distributed" requirement that at
// least one enabled process moves).
func sanitizeSelectionInto(out, selected []int, enabledBits, dedup bitset, enabled []int) []int {
	n := len(enabledBits) * 64 // bits past the network size are never set
	for _, u := range selected {
		if u < 0 || u >= n || !enabledBits.get(u) || dedup.get(u) {
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
