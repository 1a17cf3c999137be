package bench

import (
	"context"
	"errors"
	"fmt"

	"sdr/internal/checker"
	"sdr/internal/scenario"
)

// RunVerify sweeps exhaustive verification over an algorithm × topology ×
// size × fault grid: every cell is certified by checker.Explore through
// scenario's Run.Verify instead of sampled by the engine — the -verify mode
// of cmd/sdrbench. The sweep's daemon axis is irrelevant (the exploration
// branches on every daemon choice up to the selection cap) and defaults to
// a single entry; cells whose algorithm cannot run on the resolved topology
// are reported as skipped. A cell whose exploration finds a property
// violation (a cycle avoiding the legitimate set, an illegitimate terminal
// configuration, a process where the engine's rule choice differs from the
// guards) or cannot cover the reachable space within the configuration cap
// counts as a violation.
//
// The zero VerifyOptions take the scenario defaults (1 start, checker
// configuration cap, exact selections). Workers ≤ 0 splits the parallelism
// budget between the cell grid and the per-cell explorations, so the total
// worker count stays near the budget instead of multiplying.
func RunVerify(sw scenario.Sweep, vo scenario.VerifyOptions, parallel int) (Table, error) {
	if len(sw.Daemons) == 0 {
		sw.Daemons = []string{"synchronous"}
	}
	sw.Trials = 1
	if err := sw.Validate(); err != nil {
		return Table{}, err
	}
	selections := "exact"
	if vo.MaxSelectionSize > 0 {
		selections = fmt.Sprintf("≤%d", vo.MaxSelectionSize)
	}
	vo.Starts = max(vo.Starts, 1)
	t := Table{
		ID: "VERIFY",
		Title: fmt.Sprintf("exhaustive convergence certification (%d starts per cell, selections %s, base seed %d)",
			vo.Starts, selections, sw.Seed),
		Columns: []string{"algorithm", "topology", "n", "fault", "configs", "transitions", "depth", "terminal", "legit", "verdict"},
	}
	cells := sw.Cells()
	if vo.Workers <= 0 {
		// Split the parallelism budget between the cell grid and the
		// explorations inside each cell: parallel cells each get
		// parallel/#grid-workers exploration workers, so the total stays
		// near `parallel` instead of multiplying to parallel².
		gridWorkers := min(parallel, max(len(cells), 1))
		vo.Workers = max(1, parallel/max(gridWorkers, 1))
	}
	type cellResult struct {
		report  checker.ExploreReport
		verdict string
		ok      bool
		skipped bool
		err     error
	}
	results := MapGrid(context.TODO(), parallel, len(cells), 1, func(ci, _ int) cellResult {
		run, err := sw.Trial(cells[ci], 0).Resolve()
		if err != nil {
			return cellResult{skipped: errors.Is(err, scenario.ErrUnsatisfiable), err: err}
		}
		report, err := run.Verify(vo)
		switch {
		case err != nil && errors.Is(err, scenario.ErrUnverifiable):
			return cellResult{err: err}
		case err != nil:
			return cellResult{report: report, verdict: "REFUTED", err: err}
		case !report.Complete:
			return cellResult{report: report, verdict: "incomplete"}
		default:
			return cellResult{report: report, verdict: "certified", ok: true}
		}
	})
	cappedCells := 0
	for ci, c := range cells {
		r := results[ci][0]
		if r.verdict == "" {
			if !r.skipped {
				return Table{}, r.err
			}
			t.AddRow(c.Algorithm, c.Topology, itoa(c.N), c.Fault, "-", "-", "-", "-", "-", "skipped")
			continue
		}
		if !r.ok {
			t.Violations++
		}
		if r.err != nil {
			t.AddNote("%s/%s n=%d: %v", c.Algorithm, c.Topology, c.N, r.err)
		} else if !r.report.Complete {
			t.AddNote("%s/%s n=%d: exploration truncated at %d configurations; raise the configuration cap to certify",
				c.Algorithm, c.Topology, c.N, r.report.Configurations)
		}
		if r.report.CappedSelections > 0 {
			cappedCells++
		}
		t.AddRow(c.Algorithm, c.Topology, itoa(c.N), c.Fault,
			itoa(r.report.Configurations), itoa(r.report.Transitions), itoa(r.report.Depth),
			itoa(r.report.TerminalConfigurations), itoa(r.report.LegitimateConfigurations),
			r.verdict)
	}
	if cappedCells > 0 {
		t.AddNote("%d cell(s) branched on capped selections: their verdicts certify convergence under every daemon activating ≤%d processes per step (set the cap to 0 for the fully distributed daemon, at exponential cost)",
			cappedCells, vo.MaxSelectionSize)
	}
	return t, nil
}
