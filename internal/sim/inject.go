package sim

import "fmt"

// Mid-run fault injection. The paper's algorithms are self-stabilizing: they
// recover from *any* transient fault, not only from a corrupted initial
// configuration. An Injector models repeated transient faults and topology
// churn as events applied between steps; the engine records, for every event,
// the cost of re-stabilizing afterwards (the per-event analogue of the
// stabilization-time fields of Result).
//
// Daemon and round semantics of an injection: an event happens between two
// steps, atomically with respect to the algorithm (no rule executes while the
// event is applied). Because an event may change states and topology
// arbitrarily, the incremental machinery of Run cannot update locally: the
// engine re-evaluates the full enabled set and restarts the
// neutralization-based round accounting — a partial round in progress when
// the event fires is closed (counted, matching the conservative convention
// of Result.Rounds) and a fresh round starts at the perturbed configuration.
// Daemons observe the perturbed enabled set on the next step like any other;
// stateful daemons (round-robin, greedy-adversarial) keep their state across
// events, modelling an adversary that persists through faults.

// StateChange replaces the state of one process as part of an Injection.
type StateChange struct {
	// Process is the simulator-level process index.
	Process int
	// State is the new local state; the engine clones it on installation.
	State State
}

// Injection is one perturbation event: any combination of per-process state
// replacements and edge insertions/removals, applied atomically between two
// steps. Edge endpoints are process indices; the process set itself is fixed
// for the lifetime of a run (a "crashed" process is modelled by a state
// replacement, e.g. a reboot to its initial state).
type Injection struct {
	// Label names the event in the per-event recovery records.
	Label string
	// SetStates lists per-process state replacements.
	SetStates []StateChange
	// DropEdges and AddEdges edit the network topology: the engine builds
	// the next graph with graph.WithEdits (drops first, then adds) and
	// swaps it into the network. Every dropped edge must be present and
	// every added edge absent at its turn; a violation makes RunE return an
	// error naming the event's Label.
	DropEdges [][2]int
	AddEdges  [][2]int
}

// InjectionPoint is the engine state an Injector observes at a step
// boundary. Config and Net are live engine structures: injectors must not
// retain them beyond the Inject call, and must not mutate them directly —
// all mutation goes through the returned Injection so that the engine can
// re-seed its incremental state.
type InjectionPoint struct {
	// Step, Round and Moves are the counters of the run so far.
	Step  int
	Round int
	Moves int
	// Config is the current configuration (read-only).
	Config *Configuration
	// Net is the current network (read-only).
	Net *Network
	// Legitimate reports whether Config currently satisfies the run's
	// legitimacy predicate (false when the run has none).
	Legitimate bool
	// Terminal reports whether no process is enabled in Config. When the run
	// is terminal and the injector is not Done, the engine keeps consulting
	// the injector instead of ending the run, so schedules with events
	// beyond the natural termination point fire immediately ("fast-forward").
	Terminal bool
}

// Injector schedules mid-run perturbations. The engine consults it before
// every step and at terminal configurations; returning nil means "no event
// at this boundary". After an event is applied the engine consults the
// injector again at the same boundary, so several events may fire back to
// back; an Injector must therefore return nil after finitely many
// consecutive calls. Done reports that no further event will ever fire; the
// engine then treats terminal configurations and the stop-when-legitimate
// option exactly like an uninjected run.
type Injector interface {
	Inject(p InjectionPoint) *Injection
	Done() bool
}

// WithInjector attaches a mid-run fault injector to the run. Injected runs
// additionally track Result.Events, Result.LegitimateSteps and — when
// combined with WithStopWhenLegitimate — only stop once the injector is Done
// and the configuration is currently legitimate (the first stabilization no
// longer ends the run, since later events would never fire).
func WithInjector(inj Injector) Option {
	return func(o *Options) { o.injector = inj }
}

// EventRecovery is the recovery record of one injected event: the cost of
// reaching the next legitimate configuration after the event. Several events
// may be "open" at once (a second fault hits before the system recovered
// from the first); they all close at the next legitimate configuration, each
// with its own deltas.
type EventRecovery struct {
	// Label names the event (Injection.Label).
	Label string
	// Step and Round locate the event in the run (counters at the moment the
	// event was applied, after closing any partial round).
	Step  int
	Round int
	// LegitimateBefore reports whether the configuration satisfied the
	// legitimacy predicate immediately before the event.
	LegitimateBefore bool
	// Recovered reports whether the legitimacy predicate held again at some
	// point after the event (immediately, if the event did not break it).
	Recovered bool
	// RecoverySteps, RecoveryMoves and RecoveryRounds are the costs incurred
	// from the event until the next legitimate configuration (-1 when the run
	// ended before recovering). RecoveryRounds follows the conservative
	// partial-round convention of Result.Rounds.
	RecoverySteps  int
	RecoveryMoves  int
	RecoveryRounds int
}

// applyInjection installs an event into the live run state: state
// replacements land in curStates (the engine's current buffer) and edge
// edits build the next topology, which replaces the network's graph, so
// that legitimacy-predicate closures, evaluators and daemons holding the
// *Network observe it from the next step on. The previous graph is left
// untouched. An invalid edit is reported before anything is installed.
func (e *Engine) applyInjection(injn *Injection, curStates []State) error {
	next, err := e.net.g.WithEdits(injn.DropEdges, injn.AddEdges)
	if err != nil {
		return fmt.Errorf("sim: injection %q: %w", injn.Label, err)
	}
	for _, sc := range injn.SetStates {
		if n := e.net.N(); sc.Process < 0 || sc.Process >= n {
			return fmt.Errorf("sim: injection %q: process index %d out of range [0,%d)", injn.Label, sc.Process, n)
		}
	}
	for _, sc := range injn.SetStates {
		curStates[sc.Process] = sc.State
	}
	e.net.g = next
	return nil
}
