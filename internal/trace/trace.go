// Package trace records executions of the simulator for inspection, export
// and the CLI tools: a per-step event log, and compact textual / CSV / JSON
// renderings of it together with the run's sim.Result, whose move counters
// are the histograms the renderings print.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"

	"sdr/internal/sim"
)

// Event is one recorded step of an execution.
type Event struct {
	// Step is the 0-based step index.
	Step int `json:"step"`
	// Round is the 0-based round index the step belongs to.
	Round int `json:"round"`
	// Activated lists the processes that moved, ascending.
	Activated []int `json:"activated"`
	// Rules gives, for each activated process, the executed rule name.
	Rules []string `json:"rules"`
}

// maxEvents caps the stored events; the events of further steps are dropped
// and Truncated reports true, which keeps the memory of a long run bounded.
const maxEvents = 10_000

// Recorder collects the events of a run through a step hook. The zero value
// is not usable; call NewRecorder.
type Recorder struct {
	rules []sim.Rule

	events    []Event
	truncated bool
}

// NewRecorder returns a recorder for runs of alg; it names the rules of its
// events through alg.Rules().
func NewRecorder(alg sim.Algorithm) *Recorder {
	return &Recorder{rules: alg.Rules()}
}

// Hook returns the sim.StepHook to register with sim.WithStepHook.
func (r *Recorder) Hook() sim.StepHook {
	return func(info sim.StepInfo) { r.observe(info) }
}

func (r *Recorder) observe(info sim.StepInfo) {
	if len(r.events) >= maxEvents {
		r.truncated = true
		return
	}
	ev := Event{
		Step:      info.Step,
		Round:     info.Round,
		Activated: append([]int(nil), info.Activated...),
		Rules:     make([]string, len(info.Rules)),
	}
	for i, ri := range info.Rules {
		ev.Rules[i] = r.rules[ri].Name
	}
	r.events = append(r.events, ev)
}

// Events returns the recorded events (shared slice; callers must not modify
// the entries).
func (r *Recorder) Events() []Event { return r.events }

// Truncated reports whether events were dropped at the maxEvents cap.
func (r *Recorder) Truncated() bool { return r.truncated }

// MaxListedProcesses is the largest process count for which Summary lists
// the moves of every process; a larger run gets one line with the minimum,
// mean and maximum instead, so the report stays readable at any n. The
// algorithm reports of package scenario summarise their outputs above the
// same count.
const MaxListedProcesses = 64

// Summary renders the move counters of the run's result as a human-readable
// block.
func Summary(res sim.Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "moves: %d over %d steps (%d processes)\n", res.Moves, res.Steps, len(res.MovesPerProcess))

	rules := make([]string, 0, len(res.MovesPerRule))
	for name := range res.MovesPerRule {
		rules = append(rules, name)
	}
	sort.Strings(rules)
	b.WriteString("moves by rule:\n")
	for _, name := range rules {
		fmt.Fprintf(&b, "  %-12s %d\n", name, res.MovesPerRule[name])
	}

	if moves := res.MovesPerProcess; len(moves) > MaxListedProcesses {
		total, hi := 0, slices.Max(moves)
		for _, m := range moves {
			total += m
		}
		fmt.Fprintf(&b, "moves by process: min %d, mean %.2f, max %d (p%d)\n",
			slices.Min(moves), float64(total)/float64(len(moves)), hi, slices.Index(moves, hi))
		return b.String()
	}
	b.WriteString("moves by process:\n")
	for u, m := range res.MovesPerProcess {
		fmt.Fprintf(&b, "  p%-3d %d\n", u, m)
	}
	return b.String()
}

// WriteText writes every recorded event as one line "step round [procs] rules"
// to w, followed by the Summary of the run's result.
func (r *Recorder) WriteText(w io.Writer, res sim.Result) error {
	for _, ev := range r.events {
		if _, err := fmt.Fprintf(w, "step %4d  round %3d  activated %v  rules %v\n", ev.Step, ev.Round, ev.Activated, ev.Rules); err != nil {
			return fmt.Errorf("trace: write text: %w", err)
		}
	}
	if r.truncated {
		if _, err := fmt.Fprintln(w, "... (event log truncated)"); err != nil {
			return fmt.Errorf("trace: write text: %w", err)
		}
	}
	_, err := io.WriteString(w, Summary(res))
	if err != nil {
		return fmt.Errorf("trace: write text: %w", err)
	}
	return nil
}

// WriteCSV writes the recorded events as CSV rows
// "step,round,process,rule" (one row per activated process).
func (r *Recorder) WriteCSV(w io.Writer) error {
	if _, err := io.WriteString(w, "step,round,process,rule\n"); err != nil {
		return fmt.Errorf("trace: write csv: %w", err)
	}
	for _, ev := range r.events {
		for i, u := range ev.Activated {
			if _, err := fmt.Fprintf(w, "%d,%d,%d,%s\n", ev.Step, ev.Round, u, ev.Rules[i]); err != nil {
				return fmt.Errorf("trace: write csv: %w", err)
			}
		}
	}
	return nil
}

// JSONExport is the exported shape of a recorded trace.
type JSONExport struct {
	Processes      int            `json:"processes"`
	Moves          int            `json:"moves"`
	MovesByRule    map[string]int `json:"movesByRule"`
	MovesByProcess []int          `json:"movesByProcess"`
	Truncated      bool           `json:"truncated"`
	Events         []Event        `json:"events"`
}

// WriteJSON writes the whole trace, with the move counters of the run's
// result, as a single JSON document.
func (r *Recorder) WriteJSON(w io.Writer, res sim.Result) error {
	export := JSONExport{
		Processes:      len(res.MovesPerProcess),
		Moves:          res.Moves,
		MovesByRule:    res.MovesPerRule,
		MovesByProcess: res.MovesPerProcess,
		Truncated:      r.truncated,
		Events:         r.events,
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(export); err != nil {
		return fmt.Errorf("trace: write json: %w", err)
	}
	return nil
}
