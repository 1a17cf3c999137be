package checker

import (
	"fmt"
	"sync"

	"sdr/internal/sim"
)

// ExploreOptions bounds an exhaustive exploration.
type ExploreOptions struct {
	// MaxConfigurations caps the number of distinct configurations explored;
	// 0 means DefaultMaxConfigurations. The cap is enforced when
	// configurations are *added*, so the explored set never exceeds it (a
	// successor that would overflow the cap is dropped and the exploration is
	// reported as incomplete).
	MaxConfigurations int
	// MaxSelectionSize caps the size of the daemon selections that are
	// branched on; 0 means no cap (every non-empty subset of the enabled set
	// is explored, which is exact but exponential in the enabled-set size).
	// With a cap k, verdicts certify convergence under every daemon that
	// activates at most k processes per step (k = 1 is the central daemon).
	MaxSelectionSize int
	// Legitimate is the legitimacy predicate. Legitimate configurations are
	// not required to be terminal; convergence means every cycle of the
	// reachable transition graph goes through a legitimate configuration.
	Legitimate sim.Predicate
	// Invariant, when non-nil, must hold in every reachable configuration.
	Invariant sim.Predicate
	// TerminalOK, when non-nil, must hold in every reachable terminal
	// configuration.
	TerminalOK sim.Predicate
	// Workers bounds the number of goroutines expanding the BFS frontier;
	// values ≤ 1 explore sequentially. The frontier is expanded level by
	// level and merged in deterministic order, so reports and verdicts are
	// bit-identical for every worker count. With Workers > 1 the algorithm's
	// rule guards/actions and the Legitimate/Invariant/TerminalOK predicates
	// are evaluated from multiple goroutines and must be safe for concurrent
	// use — pure functions of the configuration, as every algorithm and
	// predicate in this repository is.
	Workers int
}

// DefaultMaxConfigurations bounds explorations when the caller does not.
const DefaultMaxConfigurations = 200_000

// ExploreReport summarises an exhaustive exploration.
type ExploreReport struct {
	// Configurations is the number of distinct configurations reached. It
	// never exceeds the configured MaxConfigurations.
	Configurations int
	// Transitions is the number of explored steps (edges).
	Transitions int
	// Complete reports whether the whole reachable space was explored (false
	// when MaxConfigurations was hit, or when the exploration aborted on a
	// mid-exploration violation; a post-exploration verdict error — an
	// illegitimate cycle or terminal — leaves Complete true, since the space
	// was fully covered).
	Complete bool
	// Depth is the number of fully expanded BFS levels: after Depth levels,
	// every configuration within Depth-1 daemon steps of a start has been
	// expanded and every one at distance Depth has been discovered.
	Depth int
	// TerminalConfigurations counts reachable terminal configurations.
	TerminalConfigurations int
	// LegitimateConfigurations counts reachable legitimate configurations.
	LegitimateConfigurations int
	// CappedSelections counts expanded configurations whose enabled set was
	// larger than MaxSelectionSize, i.e. where the exploration branched on a
	// strict subset of the daemon's choices. 0 means the exploration was
	// exact for the fully distributed unfair daemon.
	CappedSelections int
	// DistinctLocalStates is the number of distinct per-process states the
	// key interner observed, a coverage measure of the local state space.
	DistinctLocalStates int
}

// succ is one successor generated while expanding a configuration: its key,
// the configuration itself, the visited index when the worker pre-resolved it
// against the already-merged levels (-1 when unknown), and its legitimacy
// (evaluated only when the successor was not pre-resolved).
type succ struct {
	key   string
	cfg   *sim.Configuration
	idx   int
	legit bool
}

// expansion is the result of expanding one frontier configuration.
type expansion struct {
	terminal bool
	capped   bool
	err      error
	succs    []succ
}

// Explore exhaustively explores the configurations reachable from the given
// starting configurations under every daemon choice (every non-empty subset
// of the enabled set, capped by MaxSelectionSize) and verifies:
//
//   - Invariant holds everywhere (when provided);
//   - TerminalOK holds at every terminal configuration (when provided);
//   - when Legitimate is provided, there is no cycle consisting solely of
//     illegitimate configurations, and no illegitimate terminal
//     configuration — together these imply that every execution reaches the
//     legitimate set, i.e. convergence under the distributed unfair daemon
//     restricted to the explored space (and to daemons activating at most
//     MaxSelectionSize processes per step when a cap is set).
//
// The exploration requires the algorithm's rules to be pairwise mutually
// exclusive per process (at most one enabled rule per process), which is the
// case for SDR compositions (Lemma 5, Remark 2); it returns an error
// otherwise so that results are never silently unsound.
//
// The frontier is expanded level by level: with Workers > 1 the guard
// evaluation, successor construction and key interning of one level are
// fanned out over a bounded worker pool, and the results are merged
// sequentially in frontier order, so every report, verdict and error is
// bit-identical to the sequential exploration.
func Explore(net *sim.Network, alg sim.Algorithm, starts []*sim.Configuration, opts ExploreOptions) (ExploreReport, error) {
	report := ExploreReport{Complete: true}
	maxConfigs := opts.MaxConfigurations
	if maxConfigs <= 0 {
		maxConfigs = DefaultMaxConfigurations
	}
	workers := opts.Workers
	if workers < 1 {
		workers = 1
	}

	// The interner maps each distinct local state to a small integer once, so
	// visited keys are a few bytes per process instead of full rendered state
	// strings; its id table is internally synchronised, so workers intern
	// concurrently through AppendKey with per-worker buffers. Guard
	// evaluation goes through a single Evaluator shared with the engine's
	// code path, so the rule set is fetched once for the whole exploration;
	// the Evaluator is immutable and shared by all workers.
	//
	// On top of it, each worker owns a MemoEvaluator: distinct configurations
	// share most of their local neighbourhoods, so exploration re-asks the
	// same (neighbourhood → enabled rules) questions constantly, and the memo
	// tables answer repeats with a map probe instead of a guard scan. The
	// share's interner doubles as the configuration-key interner, so both key
	// spaces use the same state ids. Memoized masks are pure functions of the
	// neighbourhood, so reports, verdicts and errors are unchanged — the
	// per-worker-count bit-identity guarantee is unaffected. Algorithms whose
	// rule set cannot be memoized (nil MemoEvaluator) fall back to the direct
	// evaluator.
	share := sim.NewMemoShare(0)
	interner := share.Interner()
	ev := sim.NewEvaluator(alg, net)
	newMemo := func() *sim.MemoEvaluator { return sim.NewMemoEvaluator(ev, share) }
	visited := make(map[string]int)
	var configs []*sim.Configuration
	var succs [][]int
	var terminal []bool
	var legit []bool
	truncated := false

	// addConfig interns c and returns its node index; fresh reports whether
	// the configuration was new, ok whether it was (or already is) within the
	// configuration cap. Dropping a fresh configuration marks the exploration
	// truncated; the explored set never exceeds maxConfigs.
	addConfig := func(c *sim.Configuration, key string, isLegit bool) (idx int, fresh, ok bool) {
		if idx, ok := visited[key]; ok {
			return idx, false, true
		}
		if len(configs) >= maxConfigs {
			truncated = true
			return -1, false, false
		}
		idx = len(configs)
		visited[key] = idx
		configs = append(configs, c)
		succs = append(succs, nil)
		terminal = append(terminal, false)
		legit = append(legit, isLegit)
		return idx, true, true
	}

	// finalize settles the report's coverage fields from the current
	// exploration state; complete reports whether the reachable space was
	// fully covered (false on truncation and on mid-exploration aborts).
	depth := 0
	finalize := func(complete bool) {
		report.Complete = complete
		report.Depth = depth
		report.Configurations = len(configs)
		report.DistinctLocalStates = interner.States()
		report.LegitimateConfigurations = 0
		for _, l := range legit {
			if l {
				report.LegitimateConfigurations++
			}
		}
	}

	var keyBuf []byte
	var queue []int
	for _, s := range starts {
		c := s.Clone()
		var key string
		key, keyBuf = interner.AppendKey(keyBuf, c)
		isLegit := opts.Legitimate != nil && opts.Legitimate(c)
		idx, fresh, ok := addConfig(c, key, isLegit)
		if !ok {
			break
		}
		if fresh {
			queue = append(queue, idx)
		}
	}

	// expand computes the full expansion of one configuration: predicate
	// checks, terminal detection, the mutual-exclusion sanity check and every
	// capped-selection successor with its interned key. It reads only
	// immutable shared state (configs of already-merged levels, the network,
	// the evaluator) plus the caller-owned scratch buffers, so the frontier
	// can be expanded concurrently.
	expand := func(idx int, memo *sim.MemoEvaluator, enabledBuf, rulesBuf, selScratch []int, buf []byte) (expansion, []int, []int, []int, []byte) {
		c := configs[idx]
		var ex expansion

		if opts.Invariant != nil && !opts.Invariant(c) {
			ex.err = fmt.Errorf("checker: invariant violated in reachable configuration %s", c)
			return ex, enabledBuf, rulesBuf, selScratch, buf
		}

		// Every expansion looks at a different configuration, so the memo's
		// per-process state-id mirror is revalidated wholesale; the tables
		// themselves carry over (the exploration's whole point).
		var enabled []int
		if memo != nil {
			memo.InvalidateAll()
			enabled = memo.AppendEnabled(enabledBuf[:0], c)
		} else {
			enabled = ev.AppendEnabled(enabledBuf[:0], c)
		}
		enabledBuf = enabled
		if len(enabled) == 0 {
			ex.terminal = true
			if opts.TerminalOK != nil && !opts.TerminalOK(c) {
				ex.err = fmt.Errorf("checker: terminal configuration violates the terminal predicate: %s", c)
			}
			return ex, enabledBuf, rulesBuf, selScratch, buf
		}

		// Mutual-exclusion sanity check: at most one rule enabled per process.
		for _, u := range enabled {
			if memo != nil {
				rulesBuf = memo.AppendEnabledRules(rulesBuf[:0], c, u)
			} else {
				rulesBuf = ev.AppendEnabledRules(rulesBuf[:0], c, u)
			}
			if len(rulesBuf) > 1 {
				ex.err = fmt.Errorf("checker: process %d has %d enabled rules in %s; exploration requires mutually exclusive rules", u, len(rulesBuf), c)
				return ex, enabledBuf, rulesBuf, selScratch, buf
			}
		}

		ex.capped = opts.MaxSelectionSize > 0 && len(enabled) > opts.MaxSelectionSize
		selScratch = forEachSelection(enabled, opts.MaxSelectionSize, selScratch, func(sel []int) {
			next := applyStep(ev, memo, c, sel)
			var key string
			key, buf = interner.AppendKey(buf, next)
			s := succ{key: key, cfg: next, idx: -1}
			if prev, ok := visited[key]; ok {
				// Already merged in an earlier level; the merge phase skips
				// the map lookup. Successors first seen in the current level
				// stay unresolved and are deduplicated during the merge.
				s.idx = prev
			} else {
				s.legit = opts.Legitimate != nil && opts.Legitimate(next)
			}
			ex.succs = append(ex.succs, s)
		})
		return ex, enabledBuf, rulesBuf, selScratch, buf
	}

	// One memo evaluator per potential worker, created once so the tables
	// accumulate across BFS levels (evaluator 0 doubles as the sequential
	// path's). A MemoEvaluator is single-goroutine state; only the share
	// behind them is synchronised.
	memos := make([]*sim.MemoEvaluator, workers)
	for i := range memos {
		memos[i] = newMemo()
	}

	expansions := make([]expansion, 0, len(queue))
	for len(queue) > 0 && !truncated {
		level := queue
		queue = nil
		if cap(expansions) < len(level) {
			expansions = make([]expansion, len(level))
		}
		expansions = expansions[:len(level)]

		if w := min(workers, len(level)); w <= 1 {
			var enabledBuf, rulesBuf, selScratch []int
			for i, idx := range level {
				expansions[i], enabledBuf, rulesBuf, selScratch, keyBuf =
					expand(idx, memos[0], enabledBuf, rulesBuf, selScratch, keyBuf)
			}
		} else {
			// Fan the level out over the worker pool, strided so assignment
			// needs no coordination. Workers only read already-merged shared
			// state; each owns its scratch buffers and memo evaluator, and the
			// interner is internally synchronised.
			var wg sync.WaitGroup
			for g := 0; g < w; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					var enabledBuf, rulesBuf, selScratch []int
					var buf []byte
					for i := g; i < len(level); i += w {
						expansions[i], enabledBuf, rulesBuf, selScratch, buf =
							expand(level[i], memos[g], enabledBuf, rulesBuf, selScratch, buf)
					}
				}(g)
			}
			wg.Wait()
		}

		// Deterministic merge, in frontier order then selection order: the
		// exact order the sequential exploration discovers configurations in,
		// so node indices, counters, truncation points and error choices are
		// identical for every worker count.
		for i, idx := range level {
			ex := &expansions[i]
			if ex.err != nil {
				// Aborted mid-exploration: the report carries the coverage
				// reached so far, and Complete=false records that the
				// reachable space was not fully explored.
				finalize(false)
				return report, ex.err
			}
			terminal[idx] = ex.terminal
			if ex.terminal {
				report.TerminalConfigurations++
				continue
			}
			if ex.capped {
				report.CappedSelections++
			}
			for _, s := range ex.succs {
				nIdx, fresh := s.idx, false
				if nIdx < 0 {
					var ok bool
					nIdx, fresh, ok = addConfig(s.cfg, s.key, s.legit)
					if !ok {
						// The configuration cap is reached: drop the successor
						// and stop exploring. Transitions to dropped
						// configurations are not counted.
						break
					}
				}
				succs[idx] = append(succs[idx], nIdx)
				report.Transitions++
				if fresh {
					queue = append(queue, nIdx)
				}
			}
			if truncated {
				break
			}
		}
		if truncated {
			// A truncated level was only partially applied: it does not
			// count as fully expanded.
			break
		}
		depth++
	}

	finalize(!truncated)

	if opts.Legitimate != nil && report.Complete {
		if cycleNode := findIllegitimateCycle(succs, legit); cycleNode >= 0 {
			return report, fmt.Errorf("checker: cycle of illegitimate configurations through %s — the algorithm can avoid the legitimate set forever", configs[cycleNode])
		}
		// Illegitimate terminal configurations.
		for idx, c := range configs {
			if terminal[idx] && !legit[idx] {
				return report, fmt.Errorf("checker: illegitimate terminal configuration %s", c)
			}
		}
	}
	return report, nil
}

// forEachSelection calls fn for every non-empty subset of enabled whose size
// is at most maxSize (0 = no cap), enumerating directly — subsets of size 1,
// then 2, … in lexicographic position order — so the work is proportional to
// the number of emitted selections, not to 2^|enabled|. The selection slice
// handed to fn is reused across calls; fn must not retain it. scratch is a
// reusable buffer returned for the next call.
func forEachSelection(enabled []int, maxSize int, scratch []int, fn func(sel []int)) []int {
	n := len(enabled)
	k := maxSize
	if k <= 0 || k > n {
		k = n
	}
	// scratch holds the position indices (first k entries) and the rendered
	// selection (next k entries).
	if cap(scratch) < 2*k {
		scratch = make([]int, 2*k)
	}
	scratch = scratch[:2*k]
	idx, sel := scratch[:k], scratch[k:]
	for size := 1; size <= k; size++ {
		pos := idx[:size]
		for i := range pos {
			pos[i] = i
		}
		for {
			out := sel[:size]
			for i, p := range pos {
				out[i] = enabled[p]
			}
			fn(out)
			// Advance to the next size-`size` combination.
			i := size - 1
			for i >= 0 && pos[i] == n-size+i {
				i--
			}
			if i < 0 {
				break
			}
			pos[i]++
			for j := i + 1; j < size; j++ {
				pos[j] = pos[j-1] + 1
			}
		}
	}
	return scratch
}

// applyStep applies a composite-atomicity step in which exactly the selected
// processes execute their (single) enabled rule. With a memo evaluator, the
// rule is read from the cached mask (the caller has just synchronised the
// memo against c); the action itself always evaluates directly.
func applyStep(ev *sim.Evaluator, memo *sim.MemoEvaluator, c *sim.Configuration, selected []int) *sim.Configuration {
	states := make([]sim.State, c.N())
	for u := 0; u < c.N(); u++ {
		states[u] = c.State(u)
	}
	next := sim.NewConfiguration(states)
	net, rules := ev.Network(), ev.Rules()
	for _, u := range selected {
		if memo != nil {
			if ri := memo.FirstEnabledRule(c, u); ri >= 0 {
				next.SetState(u, rules[ri].Action(net.View(c, u)))
			}
			continue
		}
		v := net.View(c, u)
		for i := range rules {
			if rules[i].Guard(v) {
				next.SetState(u, rules[i].Action(v))
				break
			}
		}
	}
	return next
}

// findIllegitimateCycle looks for a cycle in the transition graph restricted
// to illegitimate nodes; it returns the index of a node on such a cycle, or
// -1 when none exists. Iterative three-colour DFS.
func findIllegitimateCycle(succs [][]int, legit []bool) int {
	const (
		white = 0
		grey  = 1
		black = 2
	)
	colour := make([]int, len(succs))
	type frame struct {
		node int
		next int
	}
	for start := range succs {
		if legit[start] || colour[start] != white {
			continue
		}
		stack := []frame{{node: start}}
		colour[start] = grey
		for len(stack) > 0 {
			top := &stack[len(stack)-1]
			if top.next < len(succs[top.node]) {
				child := succs[top.node][top.next]
				top.next++
				if legit[child] {
					continue
				}
				switch colour[child] {
				case white:
					colour[child] = grey
					stack = append(stack, frame{node: child})
				case grey:
					return child
				}
				continue
			}
			colour[top.node] = black
			stack = stack[:len(stack)-1]
		}
	}
	return -1
}
