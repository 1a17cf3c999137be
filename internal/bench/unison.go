package bench

import (
	"sdr/internal/stats"
	"sdr/internal/unison"
)

// Experiments E4-E6 exercise the unison instantiation U ∘ SDR (Section 5):
// the 3n round bound of Theorem 7, the O(D·n²) move bound of Theorem 6, and
// the comparison against the Boulinier-Petit-Villain baseline of Section 5.3.

// RunE4UnisonRounds measures the stabilization time in rounds of U ∘ SDR from
// corrupted clock configurations, against the 3n bound of Theorem 7.
func RunE4UnisonRounds(cfg Config) (Table, error) {
	cfg = cfg.withDefaults()
	t := Table{
		ID:      "E4",
		Title:   "U∘SDR stabilization rounds vs the 3n bound (Theorem 7)",
		Columns: []string{"topology", "n", "daemon", "rounds(max)", "rounds(mean)", "bound 3n", "within"},
	}
	sweep := sweepFor(cfg, 4001, []string{"unison"}, StandardTopologies(), defaultDaemons(), []string{"inner-only"})
	cells := sweep.Cells()
	type trial struct{ rounds, bound int }
	results, err := mapTrials(cfg, len(cells), func(ci, tr int) (trial, error) {
		m, err := runObserved(sweep.Trial(cells[ci], tr))
		if err != nil {
			return trial{}, err
		}
		return trial{rounds: m.result.StabilizationRounds, bound: unison.MaxStabilizationRounds(m.run.Net.N())}, nil
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
		t.AddRow(c.Topology, itoa(c.N), c.Daemon,
			itoa(int(summary.Max)), ftoa(summary.Mean), itoa(bound), boolCell(within))
	}
	return t, nil
}

// RunE5UnisonMoves measures the stabilization time in moves of U ∘ SDR and
// compares it to the explicit (3D+3)·n² + (3D+1)·(n-1) + 1 bound behind
// Theorem 6, reporting the growth exponent of moves versus n per topology.
func RunE5UnisonMoves(cfg Config) (Table, error) {
	cfg = cfg.withDefaults()
	t := Table{
		ID:      "E5",
		Title:   "U∘SDR stabilization moves vs the O(D·n²) bound (Theorem 6)",
		Columns: []string{"topology", "n", "D", "daemon", "moves(max)", "moves(mean)", "bound", "within"},
	}
	sweep := sweepFor(cfg, 5003, []string{"unison"}, StandardTopologies(), defaultDaemons(), []string{"random-all"})
	cells := sweep.Cells()
	type trial struct{ moves, bound, diameter int }
	results, err := mapTrials(cfg, len(cells), func(ci, tr int) (trial, error) {
		m, err := runObserved(sweep.Trial(cells[ci], tr))
		if err != nil {
			return trial{}, err
		}
		diameter := m.run.Net.Graph().Diameter()
		return trial{
			moves:    m.result.StabilizationMoves,
			bound:    unison.MaxStabilizationMoves(m.run.Net.N(), diameter),
			diameter: diameter,
		}, nil
	})
	if err != nil {
		return Table{}, err
	}
	// Per-topology growth fits over the distributed-random rows.
	growth := map[string][2][]float64{}
	for ci, c := range cells {
		var moves []int
		bound, diameter := 0, 0
		for _, tr := range results[ci] {
			moves = append(moves, tr.moves)
			bound = tr.bound
			diameter = tr.diameter
		}
		summary := stats.AggregateInts(moves)
		within := summary.Max <= float64(bound) && summary.Min >= 0
		if !within {
			t.Violations++
		}
		if c.Daemon == "distributed-random" {
			g := growth[c.Topology]
			g[0] = append(g[0], float64(c.N))
			g[1] = append(g[1], summary.Mean)
			growth[c.Topology] = g
		}
		t.AddRow(c.Topology, itoa(c.N), itoa(diameter), c.Daemon,
			itoa(int(summary.Max)), ftoa(summary.Mean), itoa(bound), boolCell(within))
	}
	for _, top := range StandardTopologies() {
		if g, ok := growth[top]; ok && len(g[0]) >= 2 {
			t.AddNote("%s: measured moves grow like n^%.2f under the distributed-random daemon (paper bound: O(D·n²))",
				top, stats.GrowthExponent(g[0], g[1]))
		}
	}
	return t, nil
}

// RunE6UnisonVsBPV compares the stabilization moves of U ∘ SDR against the
// Boulinier-Petit-Villain baseline on the same topologies and the same kind
// of uniformly random initial configurations. The paper's claim (Section
// 5.3) is that U ∘ SDR has the better move complexity: O(D·n²) versus
// O(D·n³ + α·n²). Both legs resolve from the same seed, so they run on
// identical graphs.
func RunE6UnisonVsBPV(cfg Config) (Table, error) {
	cfg = cfg.withDefaults()
	t := Table{
		ID:      "E6",
		Title:   "U∘SDR vs BPV baseline: stabilization moves on the same workloads",
		Columns: []string{"topology", "n", "sdr-moves(mean)", "bpv-moves(mean)", "ratio bpv/sdr", "sdr wins"},
	}
	sweep := sweepFor(cfg, 6007, []string{"unison"}, StandardTopologies(), []string{"distributed-random"}, []string{"random-all"})
	cells := sweep.Cells()
	type trial struct{ sdrMoves, bpvMoves int }
	results, err := mapTrials(cfg, len(cells), func(ci, tr int) (trial, error) {
		sdrSpec := sweep.Trial(cells[ci], tr)
		m, err := runObserved(sdrSpec)
		if err != nil {
			return trial{}, err
		}

		// BPV on the same topology (same seed → same graph) from the same
		// kind of uniformly random configuration.
		bpvSpec := sdrSpec
		bpvSpec.Algorithm = "bpv"
		b, err := runPlain(bpvSpec)
		if err != nil {
			return trial{}, err
		}
		return trial{sdrMoves: m.result.StabilizationMoves, bpvMoves: b.result.StabilizationMoves}, nil
	})
	if err != nil {
		return Table{}, err
	}
	var ratioAccum []float64
	for ci, c := range cells {
		var sdrMoves, bpvMoves []int
		for _, tr := range results[ci] {
			if tr.sdrMoves >= 0 {
				sdrMoves = append(sdrMoves, tr.sdrMoves)
			}
			if tr.bpvMoves >= 0 {
				bpvMoves = append(bpvMoves, tr.bpvMoves)
			}
		}
		sdrMean := stats.AggregateInts(sdrMoves).Mean
		bpvMean := stats.AggregateInts(bpvMoves).Mean
		ratio := stats.Ratio(bpvMean, sdrMean)
		ratioAccum = append(ratioAccum, ratio)
		t.AddRow(c.Topology, itoa(c.N), ftoa(sdrMean), ftoa(bpvMean), ftoa(ratio), boolCell(sdrMean <= bpvMean || ratio >= 1))
	}
	t.AddNote("mean bpv/sdr move ratio across the sweep: %.2f (>1 means U∘SDR needs fewer moves, matching the paper's comparison)",
		stats.AggregateSamples(ratioAccum).Mean)
	return t, nil
}
