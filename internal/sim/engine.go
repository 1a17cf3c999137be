package sim

import (
	"fmt"
	"math/bits"
	"slices"
	"time"

	"sdr/internal/obs"
)

// DefaultMaxSteps bounds a run when the caller does not override it; it
// protects against non-terminating executions of non-silent algorithms.
const DefaultMaxSteps = 2_000_000

// StepInfo describes one executed step, for hooks and traces.
type StepInfo struct {
	// Step is the 0-based index of the step.
	Step int
	// Activated lists the processes that moved, in ascending order.
	Activated []int
	// Rules gives, for each activated process (same order), the index in
	// Algorithm.Rules() of the rule it executed: an activated process
	// executes its first enabled rule.
	Rules []int
	// Before and After are the configurations around the step. Like Activated
	// and Rules they are the engine's reusable working buffers: hooks must
	// not retain or modify them beyond the callback (clone if needed).
	Before, After *Configuration
	// Round is the index (0-based) of the round this step belongs to.
	Round int
	// Events is the number of injected events that fired before the step
	// (see WithInjector). A hook that sees it grow knows that events changed
	// states or the topology since the last step it saw, so Before need not
	// be the After of that step.
	Events int
}

// StepHook observes executed steps.
type StepHook func(StepInfo)

// Options configures a run. Use the With* functions to set them. The
// combination is checked once per run by validate; RunE surfaces violations
// as errors, Run panics on them.
type Options struct {
	maxSteps           int
	legitimate         ProcessPredicate
	hooks              []StepHook
	stopWhenLegitimate bool
	injector           Injector
	memo               *MemoShare
	memoReadOnly       bool
	shards             int
	profiler           *obs.PhaseProfiler
}

// Option customises a run.
type Option func(*Options)

// validate checks the option combination. It is the single place run
// preconditions are enforced, so every constraint reads as one line here
// instead of being scattered across option constructors as panics.
func (o *Options) validate() error {
	if o.maxSteps < 0 {
		return fmt.Errorf("sim: WithMaxSteps(%d): the step bound must be non-negative", o.maxSteps)
	}
	if o.shards < 0 {
		return fmt.Errorf("sim: WithShards(%d): the shard count must be non-negative", o.shards)
	}
	if o.shards > 1 && o.memo != nil {
		return fmt.Errorf("sim: WithShards(%d) is incompatible with WithMemo: the memoized evaluator is not safe for concurrent guard evaluation", o.shards)
	}
	return nil
}

// WithMaxSteps bounds the number of steps of the run.
func WithMaxSteps(maxSteps int) Option {
	return func(o *Options) { o.maxSteps = maxSteps }
}

// WithLegitimate sets the legitimacy predicate used to measure stabilization
// time: a configuration is legitimate when p holds at every process. The run
// records when that first happens (and keeps running until termination or
// the step bound, since legitimate configurations need not be terminal).
//
// p reads one closed neighbourhood, like a guard, so a step can only change
// its verdict at the processes whose closed neighbourhood the step touched.
// The engine keeps the last verdict of every process and decides legitimacy
// lazily: a known violator that the step did not touch settles the answer at
// once, and otherwise only the touched processes are evaluated again, in
// ascending order, stopping at the first violator. p must therefore be a
// pure function of the view (states, topology and process index).
func WithLegitimate(p ProcessPredicate) Option {
	return func(o *Options) { o.legitimate = p }
}

// WithStepHook registers a hook invoked after every step.
func WithStepHook(h StepHook) Option {
	return func(o *Options) { o.hooks = append(o.hooks, h) }
}

// WithStopWhenLegitimate makes the run stop as soon as the legitimacy
// predicate holds (useful for non-silent algorithms such as unison, whose
// executions never terminate).
func WithStopWhenLegitimate() Option {
	return func(o *Options) { o.stopWhenLegitimate = true }
}

// WithMemo attaches a neighbourhood-transition memo share to the run: guard
// enabledness is answered from the share's frozen table (and a run-local
// overlay) instead of re-evaluating guards, and the first run to finish
// against an unfrozen share donates its table for the remaining runs of the
// cell. A nil share is a no-op, so callers thread an optional share through
// unconditionally. Memoized runs are bit-identical to unmemoized ones (the
// cache stores pure functions of closed neighbourhoods); Result.Memo carries
// the hit/miss telemetry.
func WithMemo(share *MemoShare) Option {
	return func(o *Options) { o.memo = share; o.memoReadOnly = false }
}

// WithMemoReadOnly is WithMemo without the donation half of the protocol: the
// run answers from the share's frozen table (and a private overlay) but never
// donates its own table, even when the share is still unfrozen. Grid runners
// hand it to every trial except the designated cache-filling one, so a cell
// whose warm trial was skipped keeps per-trial hit counts deterministic
// instead of racing the remaining trials for donation.
func WithMemoReadOnly(share *MemoShare) Option {
	return func(o *Options) { o.memo = share; o.memoReadOnly = true }
}

// WithProfiler attaches a phase profiler to the run: on the profiler's
// sampled steps (see obs.NewPhaseProfiler) the engine records wall time per
// step phase — daemon select, rule execution, guard re-evaluation and
// accounting without sharding; select, per-shard execute, merge, per-shard
// boundary exchange and accounting when WithShards asked for more than one
// shard (even if the ⌈n/64⌉ cap leaves one). Execute includes the move
// counting; guard re-evaluation (boundary exchange) includes the round's
// neutralizations and the next enabled list; merge only swaps the
// configuration buffers, and account runs the hooks, closes the round and
// decides legitimacy. All guard evaluation of an unmemoized run falls in guard
// re-evaluation (or boundary exchange); execute evaluates no guard, and asks
// the memo when one is attached. Timing never feeds back into the execution,
// so profiled runs stay bit-identical to unprofiled ones, and without a
// profiler (the default) the loop pays one nil check per step and allocates
// nothing. The profiler belongs to a single run; read it with Profile after
// the run returns.
func WithProfiler(p *obs.PhaseProfiler) Option {
	return func(o *Options) { o.profiler = p }
}

func defaultOptions() Options {
	return Options{maxSteps: DefaultMaxSteps}
}

// Result summarises an execution.
type Result struct {
	// Steps is the number of executed steps.
	Steps int
	// Moves is the total number of rule executions.
	Moves int
	// MovesPerProcess gives the number of moves of each process.
	MovesPerProcess []int
	// MovesPerRule gives the number of executions of each rule, by name.
	MovesPerRule map[string]int
	// Rounds is the number of rounds elapsed (rounded up if the execution
	// stopped mid-round with progress made in that round).
	Rounds int
	// Terminated reports whether the run reached a terminal configuration.
	Terminated bool
	// HitStepLimit reports whether the run stopped because of the step bound.
	HitStepLimit bool
	// Final is the last configuration of the run.
	Final *Configuration
	// LegitimateReached reports whether the legitimacy predicate ever held
	// (always false when no predicate was supplied).
	LegitimateReached bool
	// StabilizationMoves, StabilizationRounds and StabilizationSteps are the
	// costs incurred strictly before the first legitimate configuration
	// (0 if the initial configuration is already legitimate, -1 when the
	// predicate never held or was not supplied). StabilizationRounds follows
	// the same conservative-upper-estimate convention as Rounds: a round
	// still in progress when legitimacy is first reached counts as one full
	// round.
	StabilizationMoves  int
	StabilizationRounds int
	StabilizationSteps  int
	// MaxMovesPerProcess is the maximum entry of MovesPerProcess.
	MaxMovesPerProcess int
	// StabilizationMovesPerProcessMax is the maximum number of moves any
	// single process executed before the first legitimate configuration
	// (-1 when the predicate never held).
	StabilizationMovesPerProcessMax int
	// Events holds the per-event recovery records of an injected run (see
	// WithInjector), in the order the events fired. Empty for uninjected
	// runs.
	Events []EventRecovery
	// LegitimateSteps counts the executed steps whose resulting
	// configuration satisfied the legitimacy predicate. It is only
	// maintained for injected runs with a predicate (static runs keep the
	// predicate evaluation out of the hot loop once the first legitimate
	// configuration is recorded).
	LegitimateSteps int
	// Memo carries the transition-memoization telemetry of the run (all
	// zero when the run executed without WithMemo).
	Memo MemoStats
}

// Availability returns the fraction of executed steps whose resulting
// configuration was legitimate (0 when no step executed). It is only
// meaningful for injected runs — see LegitimateSteps.
func (r *Result) Availability() float64 {
	if r.Steps == 0 {
		return 0
	}
	return float64(r.LegitimateSteps) / float64(r.Steps)
}

// newResult returns a Result with the accounting fields initialised for n
// processes.
func newResult(n int) Result {
	return Result{
		MovesPerProcess:                 make([]int, n),
		MovesPerRule:                    make(map[string]int),
		StabilizationMoves:              -1,
		StabilizationRounds:             -1,
		StabilizationSteps:              -1,
		StabilizationMovesPerProcessMax: -1,
	}
}

// markLegitimate records the costs incurred up to the first legitimate
// configuration. partialRound reports whether a round was still in progress
// when the configuration was reached; it counts as one round, matching the
// conservative convention of the final Rounds count.
func (r *Result) markLegitimate(partialRound bool) {
	r.LegitimateReached = true
	r.StabilizationMoves = r.Moves
	r.StabilizationSteps = r.Steps
	r.StabilizationRounds = r.Rounds
	if partialRound {
		r.StabilizationRounds++
	}
	maxMoves := 0
	for _, m := range r.MovesPerProcess {
		if m > maxMoves {
			maxMoves = m
		}
	}
	r.StabilizationMovesPerProcessMax = maxMoves
}

// finish computes the derived fields once the run has ended. Both round
// counts share the partial-round convention, so StabilizationRounds never
// exceeds the final Rounds.
func (r *Result) finish() {
	for _, m := range r.MovesPerProcess {
		if m > r.MaxMovesPerProcess {
			r.MaxMovesPerProcess = m
		}
	}
}

// Engine executes an algorithm on a network under a daemon.
type Engine struct {
	net    *Network
	alg    Algorithm
	daemon Daemon
}

// NewEngine builds an engine. It panics when any argument is nil.
func NewEngine(net *Network, alg Algorithm, daemon Daemon) *Engine {
	if net == nil || alg == nil || daemon == nil {
		panic("sim: NewEngine requires a network, an algorithm and a daemon")
	}
	return &Engine{net: net, alg: alg, daemon: daemon}
}

// Network returns the engine's network.
func (e *Engine) Network() *Network { return e.net }

// Algorithm returns the engine's algorithm.
func (e *Engine) Algorithm() Algorithm { return e.alg }

// Daemon returns the engine's daemon.
func (e *Engine) Daemon() Daemon { return e.daemon }

// checkStart reports a start configuration that does not fit the network.
func (e *Engine) checkStart(start *Configuration) error {
	if start == nil {
		return fmt.Errorf("sim: nil start configuration")
	}
	if start.N() != e.net.N() {
		return fmt.Errorf("sim: configuration has %d states for %d processes", start.N(), e.net.N())
	}
	return nil
}

// Run executes the algorithm from the given starting configuration until a
// terminal configuration is reached or the step bound is hit. The starting
// configuration is not modified. It is RunE with errors turned into panics;
// callers that prefer errors use RunE directly.
func (e *Engine) Run(start *Configuration, opts ...Option) Result {
	res, err := e.RunE(start, opts...)
	if err != nil {
		panic(err.Error())
	}
	return res
}

// RunE executes the algorithm from the given starting configuration until a
// terminal configuration is reached or the step bound is hit. Invalid option
// combinations and a start configuration whose size does not match the
// network are reported as errors. The starting configuration is not
// modified.
//
// There is one engine loop. It runs each step over a partition of the
// processes into shards (see WithShards); without sharding the partition is
// a single shard and every phase runs on the calling goroutine. The daemon's
// Select is the only per-process work of a step outside the shards: rule
// execution, move counting, guard re-evaluation, the round's bookkeeping and
// the next enabled list all run per shard, and what stays sequential is
// O(shards) or O(1) apart from hooks and legitimacy. The loop is incremental
// and allocation-free in the steady state: the enabled set is maintained as
// a bitset and, after a step, only the activated processes and their
// neighbours are re-evaluated — rule guards read closed neighbourhoods only
// (the locally shared memory model), so enabledness cannot change anywhere
// else. Each guard is evaluated once per step: an activated process executes
// its first enabled rule, which re-evaluation keeps next to the process's
// enabled bit, so the next step executes it without evaluating guards again.
// The configuration is double-buffered instead of cloned per step, and the
// neutralization-based round accounting runs on reusable bitsets. The
// test-only RunReference keeps the straightforward implementation as the
// oracle; the differential tests compare the two bit for bit.
func (e *Engine) RunE(start *Configuration, opts ...Option) (Result, error) {
	o := defaultOptions()
	for _, opt := range opts {
		opt(&o)
	}
	if err := o.validate(); err != nil {
		return Result{}, err
	}
	if err := e.checkStart(start); err != nil {
		return Result{}, err
	}
	return e.run(start, o)
}

// openEvent is an injected event whose recovery has not completed yet: the
// counter values at the moment it fired. All open events close together at
// the next legitimate configuration.
type openEvent struct {
	idx, steps, moves, rounds int
}

// engineRun is the state of one run of the engine loop. The per-shard phases
// are methods handed to parallel as method expressions, so every step reuses
// the same static function values: building closures per step would
// allocate on every step of every run.
type engineRun struct {
	e     *Engine
	o     Options
	ev    *Evaluator
	rules []Rule
	// memo answers enabledness questions when WithMemo attached a share (nil
	// otherwise, or when the rule set cannot be memoized). Its answers are
	// bit-identical to ev.Enabled by construction — the cache stores pure
	// functions of closed neighbourhoods. It is single-goroutine state;
	// Options.validate only admits it on one shard.
	memo   *MemoEvaluator
	shards []engineShard

	// Double-buffered configurations: guards and the daemon read cur, the
	// step's writes land in next, and the two swap after every step.
	bufs      [2]Configuration
	cur, next *Configuration

	res Result
	// curLegit is the legitimacy verdict on cur, kept current at every
	// boundary of an injected run: recovery tracking needs the current
	// verdict, not the sticky first-stabilization one. Static runs stop
	// deciding once the first legitimate configuration is recorded; curLegit
	// is then stale and nothing reads it.
	curLegit   bool
	openEvents []openEvent
	// Legitimacy is decided per process (see WithLegitimate); both bitsets
	// are nil without a predicate. bad holds the processes whose last
	// evaluation violated the predicate, dirty the processes whose closed
	// neighbourhood changed since their last evaluation. A process outside
	// dirty still has the verdict bad records for it.
	bad, dirty bitset

	// enabledBits is the authoritative enabled set; enabledList is its
	// sorted materialisation handed to daemons, a prefix of a buffer of
	// capacity n. Every shard writes the enabled processes of its range at
	// offset lo of that buffer, and collectEnabled compacts the blocks.
	// firstRule[u] is the index of u's first enabled rule (-1 when u is
	// disabled), written next to u's enabled bit on the unmemoized path and
	// read by the apply phase.
	enabledBits bitset
	enabledList []int
	firstRule   []int32
	// Round accounting (neutralization-based): pending holds the processes
	// enabled at the start of the current round that have neither moved nor
	// been neutralized yet. The apply phase removes the activated processes
	// and re-evaluation the neutralized ones, each shard in its own word
	// range. roundProgress records whether the current round saw any step,
	// so that a final partial round is counted.
	pending       bitset
	roundProgress bool

	// The step's sorted selection is selected, and the rule index selected[i]
	// executes lands in ruleBuf[i]; hooks see both. Each shard works on its
	// contiguous block of both. A sanitized selection is a prefix of selBuf;
	// a selection that is the enabled list itself trades places with selBuf
	// instead (see selectShards). dedup is the selection sanitizer's scratch
	// (selection is sequential).
	selBuf, ruleBuf []int
	selected        []int
	dedup           bitset

	// Phase profiling: on sampled steps the loop records the wall time of
	// each phase. The clock reads sit between phases, never inside them, and
	// nothing here feeds back into the execution. Per-shard durations are
	// measured inside the workers into shardDur — each shard writes only its
	// own slot, and parallel's join is the happens-before edge. The phase
	// names follow the requested mode: a run asked for k > 1 shards reports
	// select/execute/merge/boundary_exchange/account even where the ⌈n/64⌉
	// cap leaves one shard; any other run reports
	// select/execute/guard_eval/account.
	prof      *obs.PhaseProfiler
	sharded   bool
	profStep  bool
	tStep, t0 time.Time
	shardDur  []time.Duration
}

// run is the engine loop behind RunE. It fails only when an injected event
// carries an invalid edit.
func (e *Engine) run(start *Configuration, o Options) (Result, error) {
	n := e.net.N()
	ev := NewEvaluator(e.alg, e.net)
	r := &engineRun{
		e:           e,
		o:           o,
		ev:          ev,
		rules:       ev.Rules(),
		shards:      makeShards(n, o.shards),
		res:         newResult(n),
		enabledBits: newBitset(n),
		enabledList: make([]int, 0, n),
		firstRule:   make([]int32, n),
		pending:     newBitset(n),
		selBuf:      make([]int, n),
		ruleBuf:     make([]int, n),
		dedup:       newBitset(n),
		prof:        o.profiler,
		sharded:     o.shards > 1,
	}
	for s := range r.shards {
		// A cache line of spare capacity behind every shard's counters keeps
		// two shards that count concurrently off the same line.
		r.shards[s].ruleMoves = make([]int, len(r.rules), len(r.rules)+8)
	}
	if o.legitimate != nil {
		r.bad, r.dirty = newBitset(n), newBitset(n)
	}
	if o.memo != nil {
		r.memo = NewMemoEvaluator(ev, o.memo)
		if r.memo != nil && o.memoReadOnly {
			r.memo.donor = false
		}
	}
	if r.prof != nil {
		r.shardDur = make([]time.Duration, len(r.shards))
	}
	// States are immutable values, so the run's buffers share the start's
	// boxes; the engine only ever replaces its own slice entries.
	curStates := slices.Clone(start.states)
	r.bufs = [2]Configuration{{states: curStates}, {states: make([]State, n)}}
	r.cur, r.next = &r.bufs[0], &r.bufs[1]

	r.reseed()
	for {
		if r.o.injector != nil {
			fired, err := r.inject()
			if err != nil {
				return Result{}, err
			}
			if fired {
				continue
			}
		}
		if r.stopped() {
			break
		}
		r.step()
	}

	res := &r.res
	if r.roundProgress {
		// A partial round was in progress when the run stopped; count it so
		// that round counts are conservative upper estimates.
		res.Rounds++
	}
	res.Terminated = len(r.enabledList) == 0
	res.Final = NewConfiguration(r.cur.states)
	for s := range r.shards {
		for ri, m := range r.shards[s].ruleMoves {
			if m > 0 {
				res.MovesPerRule[r.rules[ri].Name] += m
			}
		}
	}
	res.finish()
	if r.memo != nil {
		res.Memo = r.memo.Stats()
		r.memo.Finish()
	}
	return *res, nil
}

// reseed recomputes the whole enabled set and starts a fresh round at cur:
// at the start of the run and after every injected event, whose state and
// topology edits may have changed enabledness — and legitimacy — anywhere.
func (r *engineRun) reseed() {
	r.parallel((*engineRun).seedShard)
	r.collectEnabled()
	if r.dirty != nil {
		r.dirty.fill(r.e.net.N())
	}
	r.evalLegit()
	r.recordLegit(false)
	r.closeRecovered(false)
}

// inject is the injection boundary: it consults the injector before the next
// step and applies the event it returns, reporting whether one fired. The
// loop then consults the injector again — several events may fire back to
// back, and at a terminal configuration the injector gets to perturb the
// system instead of ending the run. An event with an invalid edit ends the
// run with an error.
func (r *engineRun) inject() (bool, error) {
	res := &r.res
	injn := r.o.injector.Inject(InjectionPoint{
		Step:       res.Steps,
		Round:      res.Rounds,
		Moves:      res.Moves,
		Config:     r.cur,
		Net:        r.e.net,
		Legitimate: r.curLegit,
		Terminal:   len(r.enabledList) == 0,
	})
	if injn == nil {
		return false, nil
	}
	// Close the partial round in progress: rounds after the event belong to
	// its recovery.
	if r.roundProgress {
		res.Rounds++
		r.roundProgress = false
	}
	res.Events = append(res.Events, EventRecovery{
		Label:            injn.Label,
		Step:             res.Steps,
		Round:            res.Rounds,
		LegitimateBefore: r.curLegit,
		RecoverySteps:    -1,
		RecoveryMoves:    -1,
		RecoveryRounds:   -1,
	})
	r.openEvents = append(r.openEvents, openEvent{
		idx:    len(res.Events) - 1,
		steps:  res.Steps,
		moves:  res.Moves,
		rounds: res.Rounds,
	})
	if err := r.e.applyInjection(injn, r.cur.states); err != nil {
		return false, err
	}
	// The memo's per-process state-id mirror is stale now (the memo tables
	// themselves stay valid: keys self-describe the neighbourhood, so
	// entries for the old topology are simply never probed again).
	if r.memo != nil {
		r.memo.InvalidateAll()
	}
	r.reseed()
	return true, nil
}

// stopped applies the stop rules before a step.
func (r *engineRun) stopped() bool {
	if len(r.enabledList) == 0 {
		return true
	}
	if r.res.Steps >= r.o.maxSteps {
		r.res.HitStepLimit = true
		return true
	}
	if !r.o.stopWhenLegitimate {
		return false
	}
	if inj := r.o.injector; inj != nil {
		// Injected runs may not stop at the first legitimate configuration:
		// later events would never fire. They stop once the schedule is
		// exhausted and the system recovered.
		return inj.Done() && r.curLegit
	}
	return r.res.LegitimateReached
}

// step executes one step. Only the daemon's Select and the bookkeeping that
// is O(shards) or O(1) run on the calling goroutine; every per-process part
// runs inside the shards: the apply phase executes the rules and counts the
// moves, and re-evaluation decides the touched guards, the round's
// neutralizations and the shard's block of the next enabled list. merge and
// account only install the step, run the hooks and close the round.
func (r *engineRun) step() {
	if r.prof != nil {
		if r.profStep = r.prof.StartStep(); r.profStep {
			r.tStep = time.Now()
			r.t0 = r.tStep
		}
	}

	r.selectShards()
	r.lap(obs.PhaseSelect, false)

	r.parallel((*engineRun).applyShard)
	if r.sharded {
		r.lap(obs.PhaseExecute, true)
	}

	r.merge()
	if r.sharded {
		r.lap(obs.PhaseMerge, false)
	} else {
		r.lap(obs.PhaseExecute, false)
	}

	r.parallel((*engineRun).reevaluateShard)
	r.collectEnabled()
	if r.sharded {
		r.lap(obs.PhaseBoundary, true)
	} else {
		r.lap(obs.PhaseGuard, false)
	}

	r.account()
	if r.profStep {
		r.observe(obs.PhaseAccount, false)
		r.prof.EndStep(time.Since(r.tStep))
	}
}

// selectShards is the selection phase, sequential: one Select call on the
// whole sorted enabled list. A selection that is that list itself (same
// backing array and length, as SynchronousDaemon returns it) is already
// sorted, duplicate-free and enabled, so it becomes the step's selection as
// it is, and selBuf becomes the buffer the next enabled list is written to.
// Any other selection is sanitized over [0, n) into the front of selBuf.
// Every shard then takes its range of the sorted selection by binary search
// (shards are contiguous), together with that block's offset into ruleBuf.
// The daemon sees exactly the calls of a one-shard run, so the schedule does
// not depend on the shard count.
func (r *engineRun) selectShards() {
	raw := r.e.daemon.Select(Selection{
		Net:     r.e.net,
		Alg:     r.e.alg,
		Config:  r.cur,
		Enabled: r.enabledList,
		Step:    r.res.Steps,
	})
	if len(raw) == len(r.enabledList) && &raw[0] == &r.enabledList[0] {
		r.selected = raw
		r.selBuf, r.enabledList = r.enabledList[:cap(r.enabledList)], r.selBuf[:0]
	} else {
		r.selected = sanitizeSelectionInto(r.selBuf[:0], raw, r.enabledBits, r.dedup, r.enabledList)
	}
	sel, off := r.selected, 0
	for s := range r.shards {
		sh := &r.shards[s]
		k := len(sel) // the last shard holds all the remaining ones
		if s < len(r.shards)-1 {
			k, _ = slices.BinarySearch(sel, sh.hi)
		}
		sh.selected, sh.off = sel[:k], off
		sel = sel[k:]
		off += k
	}
}

// applyShard is the apply phase of one shard: it copies the shard's segment
// of the double buffer and executes the chosen rule of each of its selected
// processes, all reading cur (composite atomicity). Every selected process
// is enabled (the selection is sanitized against the enabled set), so it has
// a rule: its first enabled one, which without a memo the last evaluation of
// u's guards cached in firstRule. The shard also records the moves — in
// MovesPerProcess and pending at its own processes, and per rule in its own
// counters — and marks the closed neighbourhoods to re-evaluate.
func (r *engineRun) applyShard(sh *engineShard) {
	t := r.shardStart()
	cur, next := r.cur, r.next.states
	copy(next[sh.lo:sh.hi], cur.states[sh.lo:sh.hi])
	ruleIdxs := r.ruleBuf[sh.off : sh.off+len(sh.selected)]
	moves := r.res.MovesPerProcess
	for i, u := range sh.selected {
		ri := int(r.firstRule[u])
		if r.memo != nil {
			ri = r.memo.FirstEnabledRule(cur, u)
		}
		ruleIdxs[i] = ri
		sh.ruleMoves[ri]++
		moves[u]++
		r.pending.clear(u)
		next[u] = r.rules[ri].Action(r.e.net.View(cur, u))
	}
	// Mark the closed neighbourhoods whose guards must be re-evaluated. The
	// marks go to the shard-private bitset: a boundary process has
	// neighbours in foreign word ranges.
	sh.touched.reset()
	for _, u := range sh.selected {
		sh.touched.set(u)
		for i, deg := 0, r.e.net.Degree(u); i < deg; i++ {
			sh.touched.set(r.e.net.Neighbor(u, i))
		}
	}
	r.shardEnd(sh, t)
}

// merge installs the step: it adds the step's moves to the total and swaps
// the configuration buffers. The shards counted everything per process and
// per rule.
func (r *engineRun) merge() {
	r.res.Moves += len(r.selected)
	r.cur, r.next = r.next, r.cur
	// Only the activated processes hold new states, so only their memoized
	// ids go stale.
	if r.memo != nil {
		for _, u := range r.selected {
			r.memo.Invalidate(u)
		}
	}
}

// seedShard evaluates every process of the shard's range, writing only the
// shard's own enabledBits and pending words, firstRule entries and block of
// the enabled list: the round starts with every enabled process pending.
func (r *engineRun) seedShard(sh *engineShard) {
	list := r.enabledBlock(sh)
	for wi := sh.wordLo; wi < sh.wordHi; wi++ {
		var en uint64
		for u, end := wi<<6, min(wi<<6+64, sh.hi); u < end; u++ {
			if r.enabledAt(u) {
				en |= 1 << uint(u&63)
			}
		}
		r.enabledBits[wi], r.pending[wi] = en, en
		list = appendWord(list, wi, en)
	}
	sh.enabled = len(list)
}

// reevaluateShard is the boundary exchange and re-evaluation of one shard:
// it OR-merges every shard's touched marks for its own word range — the
// only point where a shard observes its neighbours' writes — and
// re-evaluates the marked processes of its range, updating exclusively its
// own enabledBits words and firstRule entries. The same pass removes the
// neutralized processes (enabled before the step, not activated, not enabled
// after it) from its pending words, records whether any of them is still
// pending, and writes its block of the next enabled list. With a legitimacy
// predicate the merged word also goes into the shard's own dirty words: the
// touched processes are exactly those whose legitimacy verdict may have
// changed.
func (r *engineRun) reevaluateShard(sh *engineShard) {
	t := r.shardStart()
	list := r.enabledBlock(sh)
	var pending uint64
	for wi := sh.wordLo; wi < sh.wordHi; wi++ {
		var word uint64
		for s := range r.shards {
			word |= r.shards[s].touched[wi]
		}
		en := r.enabledBits[wi]
		if word != 0 {
			if r.dirty != nil {
				r.dirty[wi] |= word
			}
			was, base := en, wi<<6
			for ; word != 0; word &= word - 1 {
				b := bits.TrailingZeros64(word)
				if r.enabledAt(base + b) {
					en |= 1 << uint(b)
				} else {
					en &^= 1 << uint(b)
				}
			}
			r.enabledBits[wi] = en
			r.pending[wi] &^= was &^ en
		}
		pending |= r.pending[wi]
		list = appendWord(list, wi, en)
	}
	sh.enabled = len(list)
	sh.pendingLeft = pending != 0
	r.shardEnd(sh, t)
}

// enabledBlock returns the empty start of sh's block of the enabled-list
// buffer: offset lo, room for every process of the shard's range.
func (r *engineRun) enabledBlock(sh *engineShard) []int {
	return r.enabledList[sh.lo:sh.lo:sh.hi]
}

// collectEnabled compacts the shards' blocks of the enabled-list buffer into
// the sorted enabled list. A block never starts before the end of the list
// compacted so far, so the copies only move entries towards the front.
func (r *engineRun) collectEnabled() {
	buf := r.enabledList[:cap(r.enabledList)]
	k := 0
	for s := range r.shards {
		sh := &r.shards[s]
		k += copy(buf[k:], buf[sh.lo:sh.lo+sh.enabled])
	}
	r.enabledList = buf[:k]
}

// enabledAt evaluates u's guards in cur. Without a memo it also caches u's
// first enabled rule for the apply phase. The memoized path caches nothing
// here: its apply phase asks memo.Mask, whose hit counts the run reports.
func (r *engineRun) enabledAt(u int) bool {
	if r.memo != nil {
		return r.memo.Enabled(r.cur, u)
	}
	ri := r.ev.FirstEnabledRule(r.cur, u)
	r.firstRule[u] = int32(ri)
	return ri >= 0
}

// account closes the step: hooks, round accounting, legitimacy and recovery
// tracking. The shards already removed the step's activated and neutralized
// processes from pending.
func (r *engineRun) account() {
	res := &r.res
	r.roundProgress = true
	for _, h := range r.o.hooks {
		h(StepInfo{
			Step:      res.Steps,
			Activated: r.selected,
			Rules:     r.ruleBuf[:len(r.selected)],
			Before:    r.next,
			After:     r.cur,
			Round:     res.Rounds,
			Events:    len(res.Events),
		})
	}
	res.Steps++

	if !r.pendingLeft() {
		// The round is complete; the next one starts at cur.
		res.Rounds++
		r.roundProgress = false
		copy(r.pending, r.enabledBits)
	}

	if r.o.injector != nil {
		r.evalLegit()
		if r.curLegit {
			res.LegitimateSteps++
		}
	} else if !res.LegitimateReached {
		r.evalLegit()
	}
	r.recordLegit(r.roundProgress)
	r.closeRecovered(r.roundProgress)
}

// pendingLeft reports whether some process of the round is still pending,
// from the shards' answers of the last re-evaluation.
func (r *engineRun) pendingLeft() bool {
	for s := range r.shards {
		if r.shards[s].pendingLeft {
			return true
		}
	}
	return false
}

// evalLegit brings curLegit up to date with cur (a no-op without a
// predicate, where curLegit stays false).
func (r *engineRun) evalLegit() {
	if r.dirty != nil {
		r.curLegit = r.legitimate()
	}
}

// legitimate decides whether the predicate holds at every process of cur. A
// violator whose closed neighbourhood did not change since it was evaluated
// is still one, so any bit of bad outside dirty answers no in O(n/64).
// Otherwise the dirty processes are evaluated in ascending order, each
// leaving dirty and updating bad, until the first violator; the dirty
// processes after it keep their marks for a later call.
func (r *engineRun) legitimate() bool {
	for wi, w := range r.bad {
		if w&^r.dirty[wi] != 0 {
			return false
		}
	}
	for wi := range r.dirty {
		for r.dirty[wi] != 0 {
			b := bits.TrailingZeros64(r.dirty[wi])
			r.dirty[wi] &^= 1 << uint(b)
			u := wi<<6 | b
			if !r.o.legitimate(r.e.net.View(r.cur, u)) {
				r.bad.set(u)
				return false
			}
			r.bad.clear(u)
		}
	}
	return true
}

// recordLegit records the first legitimate configuration from curLegit.
func (r *engineRun) recordLegit(partialRound bool) {
	if !r.res.LegitimateReached && r.curLegit {
		r.res.markLegitimate(partialRound)
	}
}

// closeRecovered closes every open event once cur is legitimate.
func (r *engineRun) closeRecovered(partialRound bool) {
	if !r.curLegit || len(r.openEvents) == 0 {
		return
	}
	for _, oe := range r.openEvents {
		rec := &r.res.Events[oe.idx]
		rec.Recovered = true
		rec.RecoverySteps = r.res.Steps - oe.steps
		rec.RecoveryMoves = r.res.Moves - oe.moves
		rec.RecoveryRounds = r.res.Rounds - oe.rounds
		if partialRound {
			rec.RecoveryRounds++
		}
	}
	r.openEvents = r.openEvents[:0]
}

// lap closes a profiled phase: it records the wall time since the previous
// lap — and, with perShard, each shard's own time inside the phase — and
// restarts the clock. On unsampled steps it does nothing (and inlines to
// one check).
func (r *engineRun) lap(phase string, perShard bool) {
	if r.profStep {
		r.observe(phase, perShard)
	}
}

func (r *engineRun) observe(phase string, perShard bool) {
	now := time.Now()
	r.prof.Observe(phase, now.Sub(r.t0))
	if perShard {
		for i, d := range r.shardDur {
			r.prof.ObserveShard(i, phase, d)
		}
	}
	r.t0 = now
}

func (r *engineRun) shardStart() time.Time {
	if r.profStep {
		return time.Now()
	}
	return time.Time{}
}

func (r *engineRun) shardEnd(sh *engineShard, t time.Time) {
	if r.profStep {
		r.shardDur[sh.idx] = time.Since(t)
	}
}
