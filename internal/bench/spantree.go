package bench

import (
	"sdr/internal/core"
	"sdr/internal/stats"
)

// RunX1SpanningTree is the extension experiment X1: the paper's generality
// claim exercised on a third instantiation, a silent self-stabilizing BFS
// spanning tree (B ∘ SDR). It measures stabilization moves and rounds from
// corrupted configurations, checks silence (termination) and the exactness of
// the resulting tree, and verifies that the SDR-level bounds (3n rounds to a
// normal configuration, 3n+3 SDR moves per process) continue to hold.
func RunX1SpanningTree(cfg Config) (Table, error) {
	cfg = cfg.withDefaults()
	t := Table{
		ID:      "X1",
		Title:   "extension: silent self-stabilizing BFS spanning tree via B∘SDR",
		Columns: []string{"topology", "n", "scenario", "moves(mean)", "rounds(max)", "sdr-rounds-bound", "sdr-moves/proc(max)", "bound 3n+3", "root-creations", "tree-exact", "within"},
	}
	sweep := sweepFor(cfg, 13007, []string{"bfstree"}, StandardTopologies(), []string{"distributed-random"}, []string{"random-all", "fake-wave"})
	cells := sweep.Cells()
	type trial struct {
		moves, rounds, sdrMoves, sdrBound, rootCreations int
		normalRoundsOK, treeExact                        bool
	}
	results, err := mapTrials(cfg, len(cells), func(ci, tr int) (trial, error) {
		m, err := runObserved(sweep.Trial(cells[ci], tr))
		if err != nil {
			return trial{}, err
		}
		n := m.run.Net.N()
		return trial{
			moves:          m.result.Moves,
			rounds:         m.result.Rounds,
			sdrMoves:       m.observer.MaxSDRMoves(),
			sdrBound:       core.MaxSDRMovesPerProcess(n),
			rootCreations:  m.observer.AliveRootViolations(),
			normalRoundsOK: m.result.StabilizationRounds >= 0 && m.result.StabilizationRounds <= core.MaxResetRounds(n),
			treeExact:      m.run.Report(m.result).OK,
		}, nil
	})
	if err != nil {
		return Table{}, err
	}
	for ci, c := range cells {
		var moves []int
		maxRounds, maxSDRMoves, sdrBound, rootCreations := 0, 0, 0, 0
		normalRoundsOK, treesExact := true, true
		for _, tr := range results[ci] {
			moves = append(moves, tr.moves)
			maxRounds = maxInt(maxRounds, tr.rounds)
			maxSDRMoves = maxInt(maxSDRMoves, tr.sdrMoves)
			sdrBound = tr.sdrBound
			rootCreations += tr.rootCreations
			normalRoundsOK = normalRoundsOK && tr.normalRoundsOK
			treesExact = treesExact && tr.treeExact
		}
		within := normalRoundsOK && treesExact && maxSDRMoves <= sdrBound && rootCreations == 0
		if !within {
			t.Violations++
		}
		t.AddRow(c.Topology, itoa(c.N), c.Fault,
			ftoa(stats.AggregateInts(moves).Mean), itoa(maxRounds), boolCell(normalRoundsOK),
			itoa(maxSDRMoves), itoa(sdrBound), itoa(rootCreations), boolCell(treesExact), boolCell(within))
	}
	return t, nil
}
