package checker_test

// Regression tests pinning the full ExploreReport of representative
// verifications of the paper's algorithms: U ∘ SDR (Theorems 5-7) on small
// unison rings and FGA ∘ SDR (Theorems 12-14) for two Section 6.1 alliance
// specs. The reports are exact — every counter is determined by the reachable
// transition system — so any change to the exploration semantics (selection
// enumeration order is allowed to change counts only by changing reachability,
// cap handling, predicate evaluation) shows up as a diff here. The external
// test package lets these tests drive checker.Explore through the scenario
// registry without an import cycle.

import (
	"testing"

	"sdr/internal/checker"
	"sdr/internal/scenario"
)

func resolveRegress(t *testing.T, alg string, n int) *scenario.Run {
	t.Helper()
	run, err := (scenario.Spec{
		Algorithm: alg,
		Topology:  "ring",
		N:         n,
		Daemon:    "synchronous", // irrelevant: Verify branches on every daemon choice
		Fault:     "random-all",
		Seed:      1,
	}).Resolve()
	if err != nil {
		t.Fatalf("resolve %s/ring n=%d: %v", alg, n, err)
	}
	return run
}

func TestExploreReportRegression(t *testing.T) {
	cases := []struct {
		name         string
		alg          string
		n, selection int
		want         checker.ExploreReport
	}{
		{
			// U∘SDR, K=5: non-silent, so no terminal configurations; every
			// branch under central-daemon choices converges to the legitimate
			// (normal) set.
			name: "unison-ring-4", alg: "unison", n: 4, selection: 1,
			want: checker.ExploreReport{
				Configurations: 360, Transitions: 702, Complete: true, Depth: 32,
				TerminalConfigurations: 0, LegitimateConfigurations: 95,
				CappedSelections: 258, DistinctLocalStates: 26,
			},
		},
		{
			name: "unison-ring-5", alg: "unison", n: 5, selection: 1,
			want: checker.ExploreReport{
				Configurations: 684, Transitions: 1755, Complete: true, Depth: 45,
				TerminalConfigurations: 0, LegitimateConfigurations: 306,
				CappedSelections: 618, DistinctLocalStates: 27,
			},
		},
		{
			// FGA∘SDR for the dominating-set spec, exact selections (every
			// non-empty subset of the enabled set = the fully distributed
			// unfair daemon): silent, exactly one reachable terminal
			// configuration, and no capped selections.
			name: "dominating-set-ring-5-exact", alg: "dominating-set", n: 5, selection: 0,
			want: checker.ExploreReport{
				Configurations: 497, Transitions: 2684, Complete: true, Depth: 14,
				TerminalConfigurations: 1, LegitimateConfigurations: 148,
				CappedSelections: 0, DistinctLocalStates: 35,
			},
		},
		{
			name: "global-defensive-alliance-ring-5", alg: "global-defensive-alliance", n: 5, selection: 1,
			want: checker.ExploreReport{
				Configurations: 480, Transitions: 1184, Complete: true, Depth: 20,
				TerminalConfigurations: 1, LegitimateConfigurations: 117,
				CappedSelections: 426, DistinctLocalStates: 27,
			},
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			run := resolveRegress(t, tc.alg, tc.n)
			for _, workers := range []int{1, 6} {
				got, err := run.Verify(scenario.VerifyOptions{
					Starts:           4,
					MaxSelectionSize: tc.selection,
					Workers:          workers,
				})
				if err != nil {
					t.Fatalf("workers=%d: verification failed: %v", workers, err)
				}
				if got != tc.want {
					t.Errorf("workers=%d: report = %+v, want %+v", workers, got, tc.want)
				}
			}
		})
	}
}
