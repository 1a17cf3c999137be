package bench

import (
	"errors"
	"strings"

	"sdr/internal/alliance"
	"sdr/internal/scenario"
	"sdr/internal/sim"
	"sdr/internal/unison"
)

// Experiments E7-E10 exercise the (f,g)-alliance instantiation FGA and
// FGA ∘ SDR (Section 6) and the end-to-end correctness claims of both
// instantiations.

// allianceSpecNames returns the alliance registry names swept by E7-E9: one
// degree-independent and one degree-dependent instance.
func allianceSpecNames() []string {
	return []string{"dominating-set", "global-powerful-alliance"}
}

// standaloneNames appends the -standalone registry suffix to each name.
func standaloneNames(names []string) []string {
	out := make([]string, len(names))
	for i, n := range names {
		out[i] = n + "-standalone"
	}
	return out
}

// specCell strips the -standalone suffix for the table's spec column.
func specCell(algorithm string) string {
	return strings.TrimSuffix(algorithm, "-standalone")
}

// RunE7FGAMoves measures the total moves of FGA alone against the
// 16·Δ·m + 36·m + 24·n bound of Corollary 11.
func RunE7FGAMoves(cfg Config) (Table, error) {
	cfg = cfg.withDefaults()
	t := Table{
		ID:      "E7",
		Title:   "FGA termination moves vs the O(Δ·m) bound (Corollary 11)",
		Columns: []string{"spec", "topology", "n", "m", "Δ", "moves(max)", "bound", "within"},
	}
	sweep := sweepFor(cfg, 7001, standaloneNames(allianceSpecNames()), DenseTopologies(), []string{"distributed-random"}, []string{"none"})
	cells := sweep.Cells()
	type trial struct {
		moves, bound, m, delta int
		terminated             bool
	}
	results, err := mapTrials(cfg, len(cells), func(ci, tr int) (trial, error) {
		m, err := runPlain(sweep.Trial(cells[ci], tr))
		if err != nil {
			return trial{}, err
		}
		g := m.run.Net.Graph()
		return trial{
			moves:      m.result.Moves,
			bound:      alliance.MaxStandaloneMoves(g.N(), g.M(), g.MaxDegree()),
			m:          g.M(),
			delta:      g.MaxDegree(),
			terminated: m.result.Terminated,
		}, nil
	})
	if err != nil {
		return Table{}, err
	}
	for ci, c := range cells {
		maxMoves, bound, m, delta := 0, 0, 0, 0
		for _, tr := range results[ci] {
			maxMoves = maxInt(maxMoves, tr.moves)
			bound, m, delta = tr.bound, tr.m, tr.delta
			if !tr.terminated {
				t.Violations++
			}
		}
		within := maxMoves <= bound
		if !within {
			t.Violations++
		}
		t.AddRow(specCell(c.Algorithm), c.Topology, itoa(c.N), itoa(m), itoa(delta), itoa(maxMoves), itoa(bound), boolCell(within))
	}
	return t, nil
}

// RunE8FGARounds measures the rounds FGA alone needs to terminate from its
// pre-defined initial configuration against the 5n+4 bound of Theorem 10.
func RunE8FGARounds(cfg Config) (Table, error) {
	cfg = cfg.withDefaults()
	t := Table{
		ID:      "E8",
		Title:   "FGA termination rounds from γ_init vs the 5n+4 bound (Theorem 10)",
		Columns: []string{"spec", "topology", "n", "rounds(max)", "bound 5n+4", "within"},
	}
	sweep := sweepFor(cfg, 8009, standaloneNames(allianceSpecNames()), DenseTopologies(), []string{"distributed-random"}, []string{"none"})
	cells := sweep.Cells()
	type trial struct{ rounds, bound int }
	results, err := mapTrials(cfg, len(cells), func(ci, tr int) (trial, error) {
		m, err := runPlain(sweep.Trial(cells[ci], tr))
		if err != nil {
			return trial{}, err
		}
		return trial{rounds: m.result.Rounds, bound: alliance.MaxStandaloneRounds(m.run.Net.N())}, nil
	})
	if err != nil {
		return Table{}, err
	}
	for ci, c := range cells {
		maxRounds, bound := 0, 0
		for _, tr := range results[ci] {
			maxRounds = maxInt(maxRounds, tr.rounds)
			bound = tr.bound
		}
		within := maxRounds <= bound
		if !within {
			t.Violations++
		}
		t.AddRow(specCell(c.Algorithm), c.Topology, itoa(c.N), itoa(maxRounds), itoa(bound), boolCell(within))
	}
	return t, nil
}

// RunE9AllianceStabilization measures the stabilization cost of FGA ∘ SDR
// from corrupted configurations against the O(Δ·n·m) move bound (Theorem 12)
// and the 8n+4 round bound (Theorem 14), and checks that the terminal
// configuration is a 1-minimal alliance (Theorem 11).
func RunE9AllianceStabilization(cfg Config) (Table, error) {
	cfg = cfg.withDefaults()
	t := Table{
		ID:      "E9",
		Title:   "FGA∘SDR stabilization from corrupted states (Theorems 11-14)",
		Columns: []string{"spec", "topology", "n", "scenario", "moves(max)", "move-bound", "rounds(max)", "round-bound", "1-minimal", "within"},
	}
	sweep := sweepFor(cfg, 9001, allianceSpecNames(), DenseTopologies(), []string{"distributed-random"}, []string{"random-all", "fake-wave"})
	cells := sweep.Cells()
	type trial struct {
		moves, rounds, moveBound, roundBound int
		minimal                              bool
	}
	results, err := mapTrials(cfg, len(cells), func(ci, tr int) (trial, error) {
		m, err := runPlain(sweep.Trial(cells[ci], tr))
		if err != nil {
			return trial{}, err
		}
		g := m.run.Net.Graph()
		return trial{
			moves:      m.result.Moves,
			rounds:     m.result.Rounds,
			moveBound:  alliance.MaxStabilizationMoves(g.N(), g.M(), g.MaxDegree()),
			roundBound: alliance.MaxStabilizationRounds(g.N()),
			minimal:    m.run.Report(m.result).OK,
		}, nil
	})
	if err != nil {
		return Table{}, err
	}
	for ci, c := range cells {
		maxMoves, maxRounds, moveBound, roundBound := 0, 0, 0, 0
		allMinimal := true
		for _, tr := range results[ci] {
			maxMoves = maxInt(maxMoves, tr.moves)
			maxRounds = maxInt(maxRounds, tr.rounds)
			moveBound, roundBound = tr.moveBound, tr.roundBound
			allMinimal = allMinimal && tr.minimal
		}
		within := maxMoves <= moveBound && maxRounds <= roundBound && allMinimal
		if !within {
			t.Violations++
		}
		t.AddRow(c.Algorithm, c.Topology, itoa(c.N), c.Fault,
			itoa(maxMoves), itoa(moveBound), itoa(maxRounds), itoa(roundBound),
			boolCell(allMinimal), boolCell(within))
	}
	return t, nil
}

// RunE10Correctness checks the end-to-end correctness claims: every special
// case of Section 6.1 yields a 1-minimal (f,g)-alliance through FGA ∘ SDR
// (Theorem 11), and U ∘ SDR satisfies unison safety and liveness after
// stabilization (Corollary 7, Lemma 19).
func RunE10Correctness(cfg Config) (Table, error) {
	cfg = cfg.withDefaults()
	t := Table{
		ID:      "E10",
		Title:   "output correctness: 1-minimal alliances for all §6.1 instances; unison safety and liveness",
		Columns: []string{"instance", "topology", "n", "check", "ok"},
	}
	n := cfg.Sizes[len(cfg.Sizes)-1]

	// Alliance instances: every Section 6.1 spec is its own registry entry.
	for _, spec := range alliance.StandardSpecs() {
		for _, top := range DenseTopologies()[:2] {
			sp := scenario.Spec{
				Algorithm: spec.Name,
				Topology:  top,
				N:         n,
				Daemon:    "distributed-random",
				Fault:     "random-all",
				Seed:      cfg.Seed * 11,
				MaxSteps:  cfg.MaxSteps,
			}
			run, err := sp.Resolve()
			if errors.Is(err, scenario.ErrUnsatisfiable) {
				t.AddRow(spec.Name, top, itoa(n), "skipped (δ_u < max(f,g) on this topology)", boolCell(true))
				continue
			}
			if err != nil {
				return Table{}, err
			}
			res := run.Execute()
			ok := run.Report(res).OK
			if !ok {
				t.Violations++
			}
			t.AddRow(spec.Name, top, itoa(run.Net.N()), "terminal configuration is a 1-minimal (f,g)-alliance", boolCell(ok))
		}
	}

	// Unison safety and liveness after stabilization.
	for _, top := range StandardTopologies() {
		sp := scenario.Spec{
			Algorithm: "unison",
			Topology:  top,
			N:         n,
			Daemon:    "distributed-random",
			Fault:     "random-all",
			Seed:      cfg.Seed * 13,
			MaxSteps:  cfg.MaxSteps,
		}
		run, err := sp.Resolve()
		if err != nil {
			return Table{}, err
		}

		// Run to a normal configuration first.
		res := run.Execute()
		reached := res.LegitimateReached

		// From the normal configuration, run a bounded suffix under the same
		// (stateful) daemon and check that safety always holds and every
		// process ticks at least once.
		nn := run.Net.N()
		ticker := unison.NewTickCounter(nn)
		safety := unison.SafetyPredicate(run.Inner.(*unison.Unison), run.Net)
		safe := true
		hook := func(info sim.StepInfo) {
			if !safety(info.After) {
				safe = false
			}
		}
		run.Engine.Run(res.Final,
			sim.WithMaxSteps(20*nn*nn),
			sim.WithStepHook(ticker.Hook()),
			sim.WithStepHook(hook),
		)
		live := ticker.Min() >= 1
		ok := reached && safe && live
		if !ok {
			t.Violations++
		}
		t.AddRow("unison", top, itoa(nn), "safety holds and every clock ticks after stabilization", boolCell(ok))
	}
	return t, nil
}
