package sdr_test

import (
	"testing"

	"sdr/internal/bench"
)

// benchConfig keeps the testing.B benchmarks short: each iteration runs the
// whole experiment on a small sweep. The full tables are regenerated by
// cmd/sdrbench (same runners, larger configuration).
func benchConfig() bench.Config {
	return bench.Config{Sizes: []int{6, 8}, Trials: 1, Seed: 1, MaxSteps: 300_000}
}

// runExperiment benchmarks one experiment runner and fails the benchmark if
// any measurement violates a proven bound.
func runExperiment(b *testing.B, id string) {
	b.Helper()
	exp, err := bench.ExperimentByID(id)
	if err != nil {
		b.Fatal(err)
	}
	cfg := benchConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		table, err := exp.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if table.Violations != 0 {
			b.Fatalf("%s reported %d bound violations", id, table.Violations)
		}
	}
}

// BenchmarkE1ResetRounds regenerates experiment E1: rounds to reach a normal
// configuration versus the 3n bound (Corollary 5).
func BenchmarkE1ResetRounds(b *testing.B) { runExperiment(b, "E1") }

// BenchmarkE2ResetMovesPerProcess regenerates experiment E2: maximum SDR
// moves per process versus the 3n+3 bound (Corollary 4).
func BenchmarkE2ResetMovesPerProcess(b *testing.B) { runExperiment(b, "E2") }

// BenchmarkE3Segments regenerates experiment E3: segment counts, alive-root
// creations and the Theorem 4 rule language.
func BenchmarkE3Segments(b *testing.B) { runExperiment(b, "E3") }

// BenchmarkE4UnisonRounds regenerates experiment E4: U∘SDR stabilization
// rounds versus the 3n bound (Theorem 7).
func BenchmarkE4UnisonRounds(b *testing.B) { runExperiment(b, "E4") }

// BenchmarkE5UnisonMoves regenerates experiment E5: U∘SDR stabilization moves
// versus the O(D·n²) bound (Theorem 6).
func BenchmarkE5UnisonMoves(b *testing.B) { runExperiment(b, "E5") }

// BenchmarkE6UnisonVsBPV regenerates experiment E6: U∘SDR versus the BPV
// baseline (Section 5.3).
func BenchmarkE6UnisonVsBPV(b *testing.B) { runExperiment(b, "E6") }

// BenchmarkE7FGAMoves regenerates experiment E7: FGA termination moves versus
// the O(Δ·m) bound (Corollary 11).
func BenchmarkE7FGAMoves(b *testing.B) { runExperiment(b, "E7") }

// BenchmarkE8FGARounds regenerates experiment E8: FGA termination rounds from
// γ_init versus the 5n+4 bound (Theorem 10).
func BenchmarkE8FGARounds(b *testing.B) { runExperiment(b, "E8") }

// BenchmarkE9AllianceStabilization regenerates experiment E9: FGA∘SDR
// stabilization from corrupted states (Theorems 11-14).
func BenchmarkE9AllianceStabilization(b *testing.B) { runExperiment(b, "E9") }

// BenchmarkE10Correctness regenerates experiment E10: output correctness of
// both instantiations (Theorems 8 and 11, Corollary 7).
func BenchmarkE10Correctness(b *testing.B) { runExperiment(b, "E10") }

// BenchmarkA1NoCooperation regenerates ablation A1: cooperative versus
// uncooperative resets.
func BenchmarkA1NoCooperation(b *testing.B) { runExperiment(b, "A1") }

// BenchmarkA2Daemons regenerates ablation A2: daemon sensitivity.
func BenchmarkA2Daemons(b *testing.B) { runExperiment(b, "A2") }

// BenchmarkA3Period regenerates ablation A3: unison period sensitivity.
func BenchmarkA3Period(b *testing.B) { runExperiment(b, "A3") }

// BenchmarkX1SpanningTree regenerates the extension experiment X1: the silent
// self-stabilizing BFS spanning tree built from B∘SDR.
func BenchmarkX1SpanningTree(b *testing.B) { runExperiment(b, "X1") }
