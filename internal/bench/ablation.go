package bench

import (
	"sdr/internal/core"
	"sdr/internal/scenario"
	"sdr/internal/stats"
	"sdr/internal/unison"
)

// Ablations A1-A3: design-choice experiments of the suite (see Experiments).
// They do not correspond to paper claims; they quantify why the paper's design
// decisions matter.

// RunA1NoCooperation compares the cooperative composition U ∘ SDR against the
// uncooperative variant in which every joining process becomes the root of
// its own reset (distance 0) instead of hooking under a neighbouring reset.
func RunA1NoCooperation(cfg Config) (Table, error) {
	cfg = cfg.withDefaults()
	t := Table{
		ID:    "A1",
		Title: "cooperative vs uncooperative resets: stabilization cost and reset structure of U∘SDR",
		Columns: []string{
			"topology", "n",
			"coop-moves(mean)", "uncoop-moves(mean)", "ratio",
			"coop-sdr/proc(max)", "uncoop-sdr/proc(max)", "bound 3n+3",
			"coop-root-creations", "uncoop-root-creations",
		},
	}
	sweep := sweepFor(cfg, 10007, []string{"unison"}, StandardTopologies(), []string{"distributed-random"}, []string{"inner-only"})
	cells := sweep.Cells()
	type trial struct {
		coopMoves, uncoopMoves           int
		coopSDR, uncoopSDR               int
		coopRoots, uncoopRoots           int
		bound                            int
		coopStabilized, uncoopStabilized bool
	}
	results, err := mapTrials(cfg, len(cells), func(ci, tr int) (trial, error) {
		coopSpec := sweep.Trial(cells[ci], tr)
		m, err := runObserved(coopSpec)
		if err != nil {
			return trial{}, err
		}

		// Same seed for the uncooperative variant: the resolved topology,
		// corrupted start and daemon are identical, so the two runs differ
		// only in the compute(u) macro. The observer quantifies what the
		// loss of coordination costs: joining processes become roots of
		// their own resets, so alive roots are created mid-execution and the
		// per-process reset work is no longer tied to the 3n+3 bound's proof
		// argument.
		uncoopSpec := coopSpec
		uncoopSpec.Algorithm = "unison-uncoop"
		m2, err := runObserved(uncoopSpec)
		if err != nil {
			return trial{}, err
		}

		return trial{
			coopMoves:        m.result.StabilizationMoves,
			uncoopMoves:      m2.result.StabilizationMoves,
			coopSDR:          m.observer.MaxSDRMoves(),
			uncoopSDR:        m2.observer.MaxSDRMoves(),
			coopRoots:        m.observer.AliveRootViolations(),
			uncoopRoots:      m2.observer.AliveRootViolations(),
			bound:            core.MaxSDRMovesPerProcess(m.run.Net.N()),
			coopStabilized:   m.result.StabilizationMoves >= 0,
			uncoopStabilized: m2.result.StabilizationMoves >= 0,
		}, nil
	})
	if err != nil {
		return Table{}, err
	}
	var ratios []float64
	for ci, c := range cells {
		var coop, uncoop []int
		coopSDR, uncoopSDR, coopRoots, uncoopRoots, bound := 0, 0, 0, 0, 0
		for _, tr := range results[ci] {
			if tr.coopStabilized {
				coop = append(coop, tr.coopMoves)
			}
			if tr.uncoopStabilized {
				uncoop = append(uncoop, tr.uncoopMoves)
			}
			coopSDR = maxInt(coopSDR, tr.coopSDR)
			uncoopSDR = maxInt(uncoopSDR, tr.uncoopSDR)
			coopRoots += tr.coopRoots
			uncoopRoots += tr.uncoopRoots
			bound = tr.bound
		}
		coopMean := stats.AggregateInts(coop).Mean
		uncoopMean := stats.AggregateInts(uncoop).Mean
		ratio := stats.Ratio(uncoopMean, coopMean)
		ratios = append(ratios, ratio)
		if coopRoots > 0 || coopSDR > bound {
			// The cooperative variant must respect the paper's structure.
			t.Violations++
		}
		t.AddRow(c.Topology, itoa(c.N),
			ftoa(coopMean), ftoa(uncoopMean), ftoa(ratio),
			itoa(coopSDR), itoa(uncoopSDR), itoa(bound),
			itoa(coopRoots), itoa(uncoopRoots))
	}
	t.AddNote("mean uncooperative/cooperative move ratio: %.2f; cooperation's guarantee is structural: "+
		"the cooperative runs never create alive roots (Theorem 3) while the uncooperative variant does",
		stats.AggregateSamples(ratios).Mean)
	return t, nil
}

// RunA2Daemons runs the same U ∘ SDR workload under every registered daemon
// and reports the spread of stabilization rounds and moves; every daemon is
// a legal schedule of the distributed unfair daemon, so all measurements
// must stay within the paper's bounds.
func RunA2Daemons(cfg Config) (Table, error) {
	cfg = cfg.withDefaults()
	t := Table{
		ID:      "A2",
		Title:   "daemon sensitivity of U∘SDR stabilization",
		Columns: []string{"daemon", "n", "rounds(max)", "bound 3n", "moves(max)", "move-bound", "within"},
	}
	n := cfg.Sizes[len(cfg.Sizes)-1]
	sweep := sweepFor(cfg, 11003, []string{"unison"}, StandardTopologies()[:1], scenario.Daemons(), []string{"random-all"})
	sweep.Sizes = []int{n}
	cells := sweep.Cells()
	type trial struct{ rounds, moves, roundBound, moveBound int }
	results, err := mapTrials(cfg, len(cells), func(ci, tr int) (trial, error) {
		m, err := runObserved(sweep.Trial(cells[ci], tr))
		if err != nil {
			return trial{}, err
		}
		return trial{
			rounds:     m.result.StabilizationRounds,
			moves:      m.result.StabilizationMoves,
			roundBound: unison.MaxStabilizationRounds(m.run.Net.N()),
			moveBound:  unison.MaxStabilizationMoves(m.run.Net.N(), m.run.Net.Graph().Diameter()),
		}, nil
	})
	if err != nil {
		return Table{}, err
	}
	for ci, c := range cells {
		maxRounds, maxMoves, roundBound, moveBound := 0, 0, 0, 0
		for _, tr := range results[ci] {
			maxRounds = maxInt(maxRounds, tr.rounds)
			maxMoves = maxInt(maxMoves, tr.moves)
			roundBound, moveBound = tr.roundBound, tr.moveBound
		}
		within := maxRounds <= roundBound && maxMoves <= moveBound
		if !within {
			t.Violations++
		}
		t.AddRow(c.Daemon, itoa(c.N), itoa(maxRounds), itoa(roundBound), itoa(maxMoves), itoa(moveBound), boolCell(within))
	}
	return t, nil
}

// RunA3Period measures the sensitivity of U ∘ SDR to the clock period K:
// the paper only requires K > n, and the stabilization bounds are independent
// of K, so the measured costs should stay flat as K grows.
func RunA3Period(cfg Config) (Table, error) {
	cfg = cfg.withDefaults()
	t := Table{
		ID:      "A3",
		Title:   "unison period sensitivity: K = n+1 vs 2n vs 4n",
		Columns: []string{"topology", "n", "K", "rounds(max)", "moves(mean)", "bound 3n", "within"},
	}
	top := StandardTopologies()[0]
	type cell struct{ n, factor int }
	var cells []cell
	for _, n := range cfg.Sizes {
		for _, factor := range []int{1, 2, 4} {
			cells = append(cells, cell{n: n, factor: factor})
		}
	}
	type trial struct{ rounds, moves, bound, k int }
	results, err := mapTrials(cfg, len(cells), func(ci, tr int) (trial, error) {
		c := cells[ci]
		// The ring topology has exactly n processes, so the period can be
		// derived from the requested size.
		k := c.factor*c.n + 1
		m, err := runObserved(scenario.Spec{
			Algorithm: "unison",
			Topology:  top,
			N:         c.n,
			Daemon:    "distributed-random",
			Fault:     "random-all",
			Seed:      cfg.Seed + int64(tr)*12007,
			MaxSteps:  cfg.MaxSteps,
			Params:    scenario.Params{K: k},
		})
		if err != nil {
			return trial{}, err
		}
		return trial{
			rounds: m.result.StabilizationRounds,
			moves:  m.result.StabilizationMoves,
			bound:  unison.MaxStabilizationRounds(m.run.Net.N()),
			k:      k,
		}, nil
	})
	if err != nil {
		return Table{}, err
	}
	for ci, c := range cells {
		var moves []int
		maxRounds, bound, k := 0, 0, 0
		for _, tr := range results[ci] {
			maxRounds = maxInt(maxRounds, tr.rounds)
			bound, k = tr.bound, tr.k
			if tr.moves >= 0 {
				moves = append(moves, tr.moves)
			}
		}
		within := maxRounds <= bound
		if !within {
			t.Violations++
		}
		t.AddRow(top, itoa(c.n), itoa(k), itoa(maxRounds), ftoa(stats.AggregateInts(moves).Mean), itoa(bound), boolCell(within))
	}
	return t, nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
