// Package sdr is the root of a from-scratch Go reproduction of
// "Self-Stabilizing Distributed Cooperative Reset" (Stéphane Devismes and
// Colette Johnen, ICDCS 2019).
//
// The library lives under internal/:
//
//   - internal/graph    — the network model and topology generators: immutable
//     graphs in a compact CSR adjacency layout with allocation-free,
//     branch-free Degree/Neighbor iteration, built by a Builder; churn
//     derives each next topology with Graph.WithEdits;
//   - internal/sim      — the locally shared memory model with composite
//     atomicity, daemons, move/round accounting, per-process legitimacy
//     predicates decided over the neighbourhoods each step touched, the shared
//     neighbourhood→enabled-rules memoization layer (MemoEvaluator,
//     bit-identical to direct evaluation, with hit-rate telemetry), and the
//     sharded engine (WithShards: shard-parallel steps over contiguous node
//     ranges after one global daemon selection, bit-identical to the
//     sequential engine for every daemon);
//   - internal/core     — Algorithm SDR (the paper's contribution) and the
//     composition operator I ∘ SDR;
//   - internal/unison   — Algorithm U, U ∘ SDR, and the Boulinier-Petit-
//     Villain baseline (Section 5);
//   - internal/alliance — Algorithm FGA, FGA ∘ SDR, and the (f,g)-alliance
//     verifiers (Section 6);
//   - internal/checker  — closure/convergence checkers and the parallel
//     bounded-exhaustive state-space exploration behind the -verify modes
//     (model checking convergence under every daemon choice on small n);
//   - internal/faults   — transient-fault injection: the corruption builders
//     behind the scenario registry's fault models;
//   - internal/churn    — seeded mid-run perturbation schedules (state
//     corruption, node crashes, edge churn, partitions) and the injector
//     behind scenario Spec.Churn, with per-event re-stabilization metrics;
//   - internal/scenario — the declarative experiment layer: named registries
//     for algorithms, topologies, daemons and fault models, the Spec type
//     that resolves a description into a ready-to-run engine, Sweep
//     cross-products, and Run.Verify, the exhaustive-certification
//     counterpart of Run.Execute;
//   - internal/trace    — the sdrsim -trace event log (capped at 10 000
//     events), its text/CSV/JSON export, and the run summary;
//   - internal/stats    — sample aggregates (mean, percentiles, Student-t
//     confidence intervals) and growth fits for the reports;
//   - internal/bench    — the paper's experiment tables (E1-E10, A1-A3, X1)
//     and the -verify certification table, built on scenario sweeps, run
//     unmemoized, and the worker pool (MapGrid) campaigns share;
//   - internal/campaign — the experiment frame and the one runner for ad-hoc
//     grids (custom sweeps, churn sweeps, sharded runs): streaming
//     multi-trial campaigns over scenario sweeps with a resumable JSONL
//     sink, per-cell transition memoization, adaptive trial counts,
//     versioned baseline snapshots and the noise-aware baseline comparison
//     behind the CI regression gate (sdrbench -campaign / -compare);
//   - internal/obs      — the zero-dependency observability core: atomic
//     counters/gauges/histograms with Prometheus text exposition (the sdrd
//     /metrics endpoint) and the sampled engine phase profiler behind
//     sim.WithProfiler, sdrsim -profile-steps and the campaign
//     profile_steps field;
//   - internal/server   — the sdrd simulation service: an HTTP+JSON API over
//     the campaign stream core with content-hash deduplicated, backpressured
//     job execution, live-followable record streams byte-identical to the
//     offline campaign files, structured request/job-lifecycle logs, a
//     Prometheus /metrics exposition, and graceful record-boundary drain.
//
// The executables cmd/sdrsim and cmd/sdrbench, the long-running service
// daemon cmd/sdrd, and the runnable
// examples under examples/ are the entry points; all of them construct their
// runs through internal/scenario Specs, so `sdrsim -list` shows every
// combination they can run (`-list -json` for the machine-readable dump the
// service also serves at /v1/registry). bench_test.go at this root exposes one testing.B benchmark per
// experiment table. See README.md for the quickstart, the scenario sweeps and
// benchmark usage.
package sdr
