package sim

// Evaluator is the shared guard-evaluation path of the package: it snapshots
// an algorithm's rule set once and answers enabledness questions against it.
// The engine's hot loop, the package-level Enabled/EnabledSet/Terminal
// helpers and the checker's state-space exploration all evaluate guards
// through it, so callers that ask many enabledness questions about the same
// algorithm (exhaustive exploration, lookahead daemons, benchmark checkers)
// fetch the rule slice once instead of per process per call.
type Evaluator struct {
	net   *Network
	alg   Algorithm
	rules []Rule
}

// NewEvaluator builds an evaluator for the algorithm on the network. It
// panics when either argument is nil.
func NewEvaluator(alg Algorithm, net *Network) *Evaluator {
	if alg == nil || net == nil {
		panic("sim: NewEvaluator requires an algorithm and a network")
	}
	return &Evaluator{net: net, alg: alg, rules: alg.Rules()}
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
// in c, in declaration order, or -1 when none is. Guards after the first
// enabled one are not evaluated.
func (e *Evaluator) FirstEnabledRule(c *Configuration, u int) int {
	v := e.net.View(c, u)
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
