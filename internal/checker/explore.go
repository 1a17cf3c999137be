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
	// reachable transition graph goes through a legitimate configuration and
	// every reachable terminal configuration is legitimate.
	Legitimate sim.Predicate
	// Workers bounds the number of goroutines expanding the BFS frontier;
	// values ≤ 1 explore sequentially. The frontier is expanded level by
	// level and merged in deterministic order, so reports and verdicts are
	// bit-identical for every worker count. With Workers > 1 the algorithm's
	// rule guards, indexer and actions and the Legitimate predicate are
	// evaluated from multiple goroutines and must be safe for concurrent
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
	// mid-exploration violation; the post-exploration verdict error — an
	// illegitimate cycle — leaves Complete true, since the space was fully
	// covered).
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

// scratch holds one expanding goroutine's reusable buffers: the enabled
// processes, one process's enabled rules, the rule each process executes
// when selected, the selection enumeration's positions and the key bytes.
type scratch struct {
	enabled, rules, ruleOf, sel []int
	key                         []byte
}

// Explore exhaustively explores the configurations reachable from the given
// starting configurations under every daemon choice (every non-empty subset
// of the enabled set, capped by MaxSelectionSize). At every expanded
// configuration it checks each process's rules:
//
//   - the rule Guards, the paper's specification, give the enabled set and
//     the rule each process executes, so the exploration branches on the
//     paper's rules;
//   - at most one Guard holds per process: the rules must be pairwise
//     mutually exclusive, which is the case for SDR compositions (Lemma 5,
//     Remark 2), so that a selection determines the step;
//   - the engine's decision path (sim.Evaluator.FirstEnabledRule, that is
//     the algorithm's RuleIndexer when it has one) picks the same rule, so a
//     certified verdict covers the rule choice the engine actually runs.
//
// A process with more than one enabled Guard, or whose engine choice differs
// from its Guards, stops the exploration with an error naming the process
// and the configuration, so results are never silently unsound. When Legitimate
// is provided, Explore also verifies that no reachable terminal
// configuration is illegitimate (checked when it is expanded) and that there
// is no cycle consisting solely of illegitimate configurations — together
// these imply that every execution reaches the legitimate set, i.e.
// convergence under the distributed unfair daemon restricted to the explored
// space (and to daemons activating at most MaxSelectionSize processes per
// step when a cap is set).
//
// The frontier is expanded level by level: with Workers > 1 the rule checks,
// successor construction and key interning of one level are fanned out over
// a bounded worker pool, and the results are merged sequentially in frontier
// order, so every report, verdict and error is bit-identical to the
// sequential exploration.
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
	// concurrently through AppendKey with their own buffers. Rule checks go
	// through one Evaluator, the engine's own code path, shared read-only by
	// all workers.
	interner := sim.NewKeyInterner()
	ev := sim.NewEvaluator(alg, net)
	visited := make(map[string]int)
	var configs []*sim.Configuration
	var succs [][]int
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

	// expand computes the full expansion of one configuration: the rule
	// checks of every process, terminal detection and every
	// capped-selection successor with its interned key. It reads only
	// immutable shared state (configs and legitimacy of already-merged
	// levels, the network, the evaluator) plus the caller-owned scratch, so
	// the frontier can be expanded concurrently.
	expand := func(idx int, sc *scratch) expansion {
		c := configs[idx]
		var ex expansion
		sc.enabled = sc.enabled[:0]
		for u := range sc.ruleOf {
			sc.rules = ev.AppendEnabledRules(sc.rules[:0], c, u)
			if len(sc.rules) > 1 {
				ex.err = fmt.Errorf("checker: process %d has %d enabled rules in %s; exploration requires mutually exclusive rules", u, len(sc.rules), c)
				return ex
			}
			rule := -1
			if len(sc.rules) == 1 {
				rule = sc.rules[0]
				sc.enabled = append(sc.enabled, u)
			}
			if engine := ev.FirstEnabledRule(c, u); engine != rule {
				ex.err = fmt.Errorf("checker: process %d: engine picks rule %d, guards %d in %s", u, engine, rule, c)
				return ex
			}
			sc.ruleOf[u] = rule
		}
		if len(sc.enabled) == 0 {
			ex.terminal = true
			if opts.Legitimate != nil && !legit[idx] {
				ex.err = fmt.Errorf("checker: illegitimate terminal configuration %s", c)
			}
			return ex
		}

		ex.capped = opts.MaxSelectionSize > 0 && len(sc.enabled) > opts.MaxSelectionSize
		sc.sel = forEachSelection(sc.enabled, opts.MaxSelectionSize, sc.sel, func(sel []int) {
			next := applyStep(ev, c, sel, sc.ruleOf)
			var key string
			key, sc.key = interner.AppendKey(sc.key, next)
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
		return ex
	}

	scratches := make([]scratch, workers)
	for i := range scratches {
		scratches[i].ruleOf = make([]int, net.N())
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
			for i, idx := range level {
				expansions[i] = expand(idx, &scratches[0])
			}
		} else {
			// Fan the level out over the worker pool, strided so assignment
			// needs no coordination. Workers only read already-merged shared
			// state; each owns its scratch, and the interner is internally
			// synchronised.
			var wg sync.WaitGroup
			for g := 0; g < w; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := g; i < len(level); i += w {
						expansions[i] = expand(level[i], &scratches[g])
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
// processes execute their (single) enabled rule, ruleOf[u] for process u.
func applyStep(ev *sim.Evaluator, c *sim.Configuration, selected, ruleOf []int) *sim.Configuration {
	states := make([]sim.State, c.N())
	for u := 0; u < c.N(); u++ {
		states[u] = c.State(u)
	}
	next := sim.NewConfiguration(states)
	net, rules := ev.Network(), ev.Rules()
	for _, u := range selected {
		next.SetState(u, rules[ruleOf[u]].Action(net.View(c, u)))
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
