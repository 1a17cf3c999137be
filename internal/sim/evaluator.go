package sim

// RuleIndexer is optionally implemented by an Algorithm that can find the
// first enabled rule at a process faster than trying its guards one by one,
// typically because its guards share sub-predicates. FirstEnabled(v) must
// return exactly the index of the first rule of Rules() whose Guard holds at
// v, or -1 when none does: the rule Guards stay the specification and the
// indexer is only a faster way to evaluate them.
type RuleIndexer interface {
	FirstEnabled(v View) int
}

// Evaluator is the shared guard-evaluation path of the package: it snapshots
// an algorithm's rule set once and answers enabledness questions against it.
// The engine's hot loop, the greedy daemon's lookahead, the package-level
// Enabled/Terminal helpers and the checker's state-space
// exploration all evaluate guards through it, so callers that ask many
// enabledness questions about the same algorithm fetch the rule slice once
// instead of per process per call.
//
// FirstEnabledRule, Enabled, AppendEnabled and Terminal go through the
// algorithm's RuleIndexer when it implements one. AppendEnabledRules always
// evaluates every Guard, as does the memo's mask fill. The checker asks both
// at every process of every explored configuration: the Guards give the
// rules it branches on, and FirstEnabledRule must pick the first of them.
type Evaluator struct {
	net     *Network
	alg     Algorithm
	rules   []Rule
	indexer RuleIndexer
}

// NewEvaluator builds an evaluator for the algorithm on the network. It
// panics when either argument is nil.
func NewEvaluator(alg Algorithm, net *Network) *Evaluator {
	if alg == nil || net == nil {
		panic("sim: NewEvaluator requires an algorithm and a network")
	}
	ix, _ := alg.(RuleIndexer)
	return &Evaluator{net: net, alg: alg, rules: alg.Rules(), indexer: ix}
}

// Algorithm returns the evaluated algorithm.
func (e *Evaluator) Algorithm() Algorithm { return e.alg }

// Network returns the network guards are evaluated on.
func (e *Evaluator) Network() *Network { return e.net }

// Rules returns the snapshotted rule set (not to be modified).
func (e *Evaluator) Rules() []Rule { return e.rules }

// Enabled reports whether process u has at least one enabled rule in c.
func (e *Evaluator) Enabled(c *Configuration, u int) bool {
	return e.FirstEnabledRule(c, u) >= 0
}

// FirstEnabledRule returns the index of the first rule enabled at process u
// in c, in declaration order, or -1 when none is. It asks the algorithm's
// RuleIndexer when there is one; otherwise it evaluates the guards in order
// and stops at the first enabled one.
func (e *Evaluator) FirstEnabledRule(c *Configuration, u int) int {
	v := e.net.View(c, u)
	if e.indexer != nil {
		return e.indexer.FirstEnabled(v)
	}
	for i := range e.rules {
		if e.rules[i].Guard(v) {
			return i
		}
	}
	return -1
}

// AppendEnabledRules appends the indices of the rules enabled at process u
// in c to dst and returns it; it allocates nothing when dst has capacity.
func (e *Evaluator) AppendEnabledRules(dst []int, c *Configuration, u int) []int {
	v := e.net.View(c, u)
	for i := range e.rules {
		if e.rules[i].Guard(v) {
			dst = append(dst, i)
		}
	}
	return dst
}

// AppendEnabled appends the sorted set of enabled processes in c to dst and
// returns it; it allocates nothing when dst has capacity.
func (e *Evaluator) AppendEnabled(dst []int, c *Configuration) []int {
	for u := 0; u < e.net.N(); u++ {
		if e.Enabled(c, u) {
			dst = append(dst, u)
		}
	}
	return dst
}

// Terminal reports whether c is a terminal configuration (no process
// enabled).
func (e *Evaluator) Terminal(c *Configuration) bool {
	for u := 0; u < e.net.N(); u++ {
		if e.Enabled(c, u) {
			return false
		}
	}
	return true
}
