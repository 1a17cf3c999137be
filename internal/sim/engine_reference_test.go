package sim

// This file retains the straightforward engine implementation that predates
// the incremental enabled-set engine: it rescans every process after each
// step, decides legitimacy over the whole configuration, clones the
// configuration per step, and keeps the round accounting in maps. It is deliberately kept simple and obviously correct; the
// differential tests in engine_diff_test.go assert that Run produces
// bit-identical Results to RunReference across algorithms, daemons and
// seeds, and the benchmarks in engine_bench_test.go quantify the speedup.

// RunReference executes the algorithm exactly like Run but with the retained
// reference implementation. It lives in a test file: the differential tests
// (including those of package sim_test) and the reference benchmarks use it
// as the oracle, and it is not part of the package API.
func (e *Engine) RunReference(start *Configuration, opts ...Option) Result {
	o := defaultOptions()
	for _, opt := range opts {
		opt(&o)
	}
	if err := o.validate(); err != nil {
		panic(err.Error())
	}
	if o.injector != nil {
		panic("sim: RunReference does not support injectors; it is the differential oracle for static runs")
	}
	if o.shards > 1 {
		panic("sim: RunReference does not support sharding; it is the differential oracle for the sequential loop")
	}
	if err := e.checkStart(start); err != nil {
		panic(err.Error())
	}

	n := e.net.N()
	cur := start.Clone()
	res := newResult(n)

	// The oracle decides legitimacy by the definition: the per-process
	// predicate at every process of the whole configuration, every time.
	var legit Predicate
	if o.legitimate != nil {
		legit = AllProcesses(e.net, o.legitimate)
	}
	recordLegit := func(partialRound bool) {
		if res.LegitimateReached || legit == nil {
			return
		}
		if legit(cur) {
			res.markLegitimate(partialRound)
		}
	}

	// Round accounting (neutralization-based): pending holds the processes
	// enabled at the start of the current round that have neither moved nor
	// been neutralized yet. roundProgress records whether the current round
	// saw any step, so that a final partial round is counted.
	rules := e.alg.Rules()
	enabled := referenceEnabledSet(rules, e.net, cur)
	pending := make(map[int]bool, len(enabled))
	for _, u := range enabled {
		pending[u] = true
	}
	roundProgress := false

	recordLegit(false)

	for len(enabled) > 0 {
		if res.Steps >= o.maxSteps {
			res.HitStepLimit = true
			break
		}
		if o.stopWhenLegitimate && res.LegitimateReached {
			break
		}

		selected := e.daemon.Select(Selection{
			Net:     e.net,
			Alg:     e.alg,
			Config:  cur,
			Enabled: enabled,
			Step:    res.Steps,
		})
		selected = referenceSanitizeSelection(selected, enabled)

		// Composite atomicity: all selected processes read cur and their
		// writes are installed together in next.
		next := NewConfiguration(copyStates(cur))
		ruleIdxs := make([]int, 0, len(selected))
		for _, u := range selected {
			v := e.net.View(cur, u)
			ri := referenceFirstRule(rules, v)
			ruleIdxs = append(ruleIdxs, ri)
			if ri < 0 {
				// Defensive: the daemon selected a non-enabled process; skip.
				continue
			}
			next.SetState(u, rules[ri].Action(v))
			res.Moves++
			res.MovesPerProcess[u]++
			res.MovesPerRule[rules[ri].Name]++
		}

		enabledBefore := enabled
		prev := cur
		cur = next
		enabled = referenceEnabledSet(rules, e.net, cur)
		roundProgress = true

		// Update the pending set of the current round.
		activatedSet := make(map[int]bool, len(selected))
		for _, u := range selected {
			activatedSet[u] = true
		}
		enabledAfter := make(map[int]bool, len(enabled))
		for _, u := range enabled {
			enabledAfter[u] = true
		}
		wasEnabled := make(map[int]bool, len(enabledBefore))
		for _, u := range enabledBefore {
			wasEnabled[u] = true
		}
		for u := range pending {
			if activatedSet[u] {
				delete(pending, u)
				continue
			}
			if wasEnabled[u] && !enabledAfter[u] {
				// Neutralized: enabled before the step, not activated, and
				// no longer enabled after it.
				delete(pending, u)
			}
		}

		for _, h := range o.hooks {
			h(StepInfo{
				Step:      res.Steps,
				Activated: selected,
				Rules:     ruleIdxs,
				Before:    prev,
				After:     cur,
				Round:     res.Rounds,
			})
		}
		res.Steps++

		if len(pending) == 0 {
			// The round is complete; the next one starts at cur.
			res.Rounds++
			roundProgress = false
			pending = make(map[int]bool, len(enabled))
			for _, u := range enabled {
				pending[u] = true
			}
		}

		recordLegit(roundProgress)
	}

	if roundProgress {
		// A partial round was in progress when the run stopped; count it so
		// that round counts are conservative upper estimates.
		res.Rounds++
	}
	res.Terminated = len(enabled) == 0
	res.Final = cur
	res.finish()
	return res
}

// referenceEnabledSet is the retained enabled-set scan: it tries every
// process's guards in order. It evaluates the Guard closures directly rather
// than through Evaluator, so the oracle shares no code with an algorithm's
// RuleIndexer.
func referenceEnabledSet(rules []Rule, net *Network, c *Configuration) []int {
	var enabled []int
	for u := 0; u < net.N(); u++ {
		v := net.View(c, u)
		for _, r := range rules {
			if r.Guard(v) {
				enabled = append(enabled, u)
				break
			}
		}
	}
	return enabled
}

// referenceSanitizeSelection is the retained map-based selection sanitizer:
// it keeps only selected processes that are actually enabled and returns
// them sorted and de-duplicated; when the daemon misbehaves and returns an
// empty or fully invalid selection, the first enabled process is used so
// that the run always makes progress.
func referenceSanitizeSelection(selected, enabled []int) []int {
	enabledSet := make(map[int]bool, len(enabled))
	for _, u := range enabled {
		enabledSet[u] = true
	}
	seen := make(map[int]bool, len(selected))
	var out []int
	for _, u := range selected {
		if enabledSet[u] && !seen[u] {
			seen[u] = true
			out = append(out, u)
		}
	}
	if len(out) == 0 {
		return []int{enabled[0]}
	}
	referenceSortInts(out)
	return out
}

func referenceSortInts(s []int) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j-1] > s[j]; j-- {
			s[j-1], s[j] = s[j], s[j-1]
		}
	}
}

// referenceFirstRule is the retained rule-choice helper: the index of the
// first rule whose Guard holds at v, or -1.
func referenceFirstRule(rules []Rule, v View) int {
	for i, r := range rules {
		if r.Guard(v) {
			return i
		}
	}
	return -1
}
