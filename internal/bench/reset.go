package bench

import (
	"sdr/internal/core"
	"sdr/internal/stats"
)

// Experiments E1-E3 exercise the reset layer itself (with Algorithm U as the
// inner algorithm): the round bound of Corollary 5, the per-process SDR move
// bound of Corollary 4, and the segment / alive-root structure of Theorem 3
// and Remark 5. Each is a declarative sweep over the standard grid; the
// scenario registries do all the construction.

// RunE1ResetRounds measures, over the standard topology/daemon/fault sweep,
// the number of rounds until the composition reaches a normal configuration,
// and compares it to the 3n bound of Corollary 5.
func RunE1ResetRounds(cfg Config) (Table, error) {
	cfg = cfg.withDefaults()
	t := Table{
		ID:      "E1",
		Title:   "rounds to reach a normal configuration vs the 3n bound (Corollary 5)",
		Columns: []string{"topology", "n", "daemon", "scenario", "rounds(max)", "rounds(mean)", "bound 3n", "within"},
	}
	sweep := sweepFor(cfg, 1001, []string{"unison"}, StandardTopologies(), defaultDaemons(), []string{"random-all"})
	cells := sweep.Cells()
	type trial struct{ rounds, bound int }
	results, err := mapTrials(cfg, len(cells), func(ci, tr int) (trial, error) {
		m, err := runObserved(sweep.Trial(cells[ci], tr))
		if err != nil {
			return trial{}, err
		}
		return trial{rounds: m.result.StabilizationRounds, bound: core.MaxResetRounds(m.run.Net.N())}, nil
	})
	if err != nil {
		return Table{}, err
	}
	for ci, c := range cells {
		var rounds []int
		bound := 0
		for _, tr := range results[ci] {
			rounds = append(rounds, tr.rounds)
			bound = tr.bound
		}
		summary := stats.AggregateInts(rounds)
		within := summary.Max <= float64(bound) && summary.Min >= 0
		if !within {
			t.Violations++
		}
		t.AddRow(c.Topology, itoa(c.N), c.Daemon, c.Fault,
			itoa(int(summary.Max)), ftoa(summary.Mean), itoa(bound), boolCell(within))
	}
	return t, nil
}

// RunE2ResetMovesPerProcess measures the maximum number of SDR-rule moves any
// single process executes during a whole run, and compares it to the 3n+3
// bound of Corollary 4.
func RunE2ResetMovesPerProcess(cfg Config) (Table, error) {
	cfg = cfg.withDefaults()
	t := Table{
		ID:      "E2",
		Title:   "maximum SDR moves per process vs the 3n+3 bound (Corollary 4)",
		Columns: []string{"topology", "n", "daemon", "scenario", "sdr-moves/proc(max)", "bound 3n+3", "within"},
	}
	sweep := sweepFor(cfg, 2003, []string{"unison"}, StandardTopologies(), defaultDaemons(), []string{"random-all", "fake-wave"})
	cells := sweep.Cells()
	type trial struct{ maxMoves, bound int }
	results, err := mapTrials(cfg, len(cells), func(ci, tr int) (trial, error) {
		m, err := runObserved(sweep.Trial(cells[ci], tr))
		if err != nil {
			return trial{}, err
		}
		return trial{maxMoves: m.observer.MaxSDRMoves(), bound: core.MaxSDRMovesPerProcess(m.run.Net.N())}, nil
	})
	if err != nil {
		return Table{}, err
	}
	for ci, c := range cells {
		maxMoves, bound := 0, 0
		for _, tr := range results[ci] {
			maxMoves = maxInt(maxMoves, tr.maxMoves)
			bound = tr.bound
		}
		within := maxMoves <= bound
		if !within {
			t.Violations++
		}
		t.AddRow(c.Topology, itoa(c.N), c.Daemon, c.Fault, itoa(maxMoves), itoa(bound), boolCell(within))
	}
	return t, nil
}

// RunE3Segments measures the number of segments of each execution and checks
// that no alive root is ever created and that the per-segment SDR rule
// sequence of every process matches the language of Theorem 4.
func RunE3Segments(cfg Config) (Table, error) {
	cfg = cfg.withDefaults()
	t := Table{
		ID:      "E3",
		Title:   "segments, alive-root creations and the Theorem 4 rule language",
		Columns: []string{"topology", "n", "daemon", "segments(max)", "bound n+1", "root-creations", "language-ok", "within"},
	}
	sweep := sweepFor(cfg, 3001, []string{"unison"}, StandardTopologies(), defaultDaemons(), []string{"random-all"})
	cells := sweep.Cells()
	type trial struct {
		segments, bound, rootCreations int
		languageOK                     bool
	}
	results, err := mapTrials(cfg, len(cells), func(ci, tr int) (trial, error) {
		m, err := runObserved(sweep.Trial(cells[ci], tr))
		if err != nil {
			return trial{}, err
		}
		return trial{
			segments:      m.observer.Segments(),
			bound:         core.MaxSegments(m.run.Net.N()),
			rootCreations: m.observer.AliveRootViolations(),
			languageOK:    m.observer.LanguageViolation() == "",
		}, nil
	})
	if err != nil {
		return Table{}, err
	}
	for ci, c := range cells {
		maxSegments, rootCreations, bound := 0, 0, 0
		languageOK := true
		for _, tr := range results[ci] {
			maxSegments = maxInt(maxSegments, tr.segments)
			rootCreations += tr.rootCreations
			bound = tr.bound
			languageOK = languageOK && tr.languageOK
		}
		within := maxSegments <= bound && rootCreations == 0 && languageOK
		if !within {
			t.Violations++
		}
		t.AddRow(c.Topology, itoa(c.N), c.Daemon,
			itoa(maxSegments), itoa(bound), itoa(rootCreations), boolCell(languageOK), boolCell(within))
	}
	return t, nil
}
