// Package campaign is the experiment-frame layer of the reproduction: it
// separates *what* to measure (a Spec: a scenario sweep plus a trial policy)
// from the machinery that runs it, the same split DEVS-style simulation
// frameworks make between model and experiment frame.
//
// A campaign streams every completed trial to a JSONL sink as it finishes,
// so cells can run thousands of trials in bounded memory; the sink doubles
// as a checkpoint, and an interrupted campaign resumed from it produces
// byte-identical output to an uninterrupted run (per-trial seeds are derived
// deterministically, and adaptive stopping decisions depend only on recorded
// metric values). Per-cell aggregation goes through internal/stats
// (mean, sample stddev, p50/p95/p99, Student-t 95% confidence intervals);
// cells with a CI precision target stop early once the relative CI
// half-width of the primary metric falls under it. Aggregates snapshot into
// versioned Baselines (commit, Go version, host fingerprint) that Compare
// diffs with noise-aware thresholds — the regression gate cmd/sdrbench
// -campaign / -compare and the CI workflows are built on.
package campaign

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"strings"

	"sdr/internal/scenario"
	"sdr/internal/stats"
)

// Metric names a per-trial measurement recorded by every campaign trial.
// The stabilization metrics are only present on trials whose run reached a
// legitimate configuration under an algorithm that defines legitimacy.
const (
	MetricMoves      = "moves"
	MetricRounds     = "rounds"
	MetricSteps      = "steps"
	MetricStabMoves  = "stab_moves"
	MetricStabRounds = "stab_rounds"
	MetricStabSteps  = "stab_steps"
	// The recovery metrics are only present on churn trials (cells with a
	// Churns axis entry): the mean per-event recovery cost over the trial's
	// recovered events, and the availability (fraction of executed steps
	// spent in a legitimate configuration). Any of them can drive CITarget
	// and the -compare regression gate like the built-in cost metrics.
	MetricRecoveryRounds = "recovery_rounds"
	MetricRecoveryMoves  = "recovery_moves"
	MetricRecoverySteps  = "recovery_steps"
	MetricAvailability   = "availability"
	// MetricMemoHitRate is the fraction of the trial's memoized enabledness
	// lookups answered from cache, recorded on trials that performed at least
	// one lookup (memoization on and the algorithm's rule set memoizable).
	// The cache-filling protocol is deterministic, so the value is as
	// reproducible as the cost metrics.
	MetricMemoHitRate = "memo_hit_rate"
	// MetricDuration is the wall-clock nanoseconds of the trial, recorded
	// only when Spec.RecordTime is set (it makes resumed output differ from
	// uninterrupted output byte-for-byte).
	MetricDuration = "duration_ns"
	// MetricPhasePrefix prefixes the engine phase-timing metrics recorded
	// when Spec.ProfileSteps is set: phase_<name>_ns is the mean wall time
	// (nanoseconds) of that engine phase per sampled step, and phase_step_ns
	// the mean sampled-step wall time (see internal/obs.PhaseProfiler). Like
	// duration_ns they are wall-clock measurements, not deterministic counts.
	MetricPhasePrefix = "phase_"
)

// Metrics lists every metric name a campaign can aggregate, in render order.
func Metrics() []string {
	return []string{MetricMoves, MetricRounds, MetricSteps,
		MetricStabMoves, MetricStabRounds, MetricStabSteps,
		MetricRecoveryRounds, MetricRecoveryMoves, MetricRecoverySteps,
		MetricAvailability, MetricMemoHitRate, MetricDuration}
}

// DefaultMinTrials is the per-cell trial count used when a Spec leaves
// MinTrials at zero.
const DefaultMinTrials = 4

// adaptiveMinTrials is the floor on MinTrials when a CI precision target is
// set: a confidence interval needs at least two samples, and three keeps the
// t-multiplier out of its df=1 blow-up.
const adaptiveMinTrials = 3

var specIDPattern = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_-]*$`)

// Spec declaratively describes one campaign: the scenario sweep to cover and
// the per-cell trial policy. It is the schema of the JSON campaign files
// cmd/sdrbench -campaign runs.
type Spec struct {
	// ID names the campaign; it becomes the CAMPAIGN_<ID>.jsonl /
	// BENCH_<ID>.json file stem and must match [A-Za-z0-9][A-Za-z0-9_-]*.
	ID string `json:"id"`
	// Algorithms, Topologies, Daemons and Faults name scenario registry
	// entries; empty Faults defaults to {"none"}.
	Algorithms []string `json:"algorithms"`
	Topologies []string `json:"topologies"`
	Daemons    []string `json:"daemons"`
	Faults     []string `json:"faults,omitempty"`
	// Churns names churn schedules (registry entries or grammar forms, see
	// scenario.ResolveChurn) swept as an additional axis; empty means no
	// mid-run perturbation (static runs, the previous behaviour — the field
	// marshals away entirely, so existing spec files and streams are
	// unaffected).
	Churns []string `json:"churns,omitempty"`
	// Sizes is the sweep of network sizes n.
	Sizes []int `json:"sizes"`
	// Seed is the base seed; trial t of every cell derives seed
	// Seed + t·SeedStride (scenario.TrialSeedStride when SeedStride is 0).
	Seed       int64 `json:"seed"`
	SeedStride int64 `json:"seed_stride,omitempty"`
	// MaxSteps bounds each execution; 0 means sim.DefaultMaxSteps.
	MaxSteps int `json:"max_steps,omitempty"`
	// Shards is the engine shard count every trial runs with (see
	// sim.WithShards); 0 or 1 means the sequential engine — the field
	// marshals away, so existing spec files, streams and baselines keep
	// their byte encoding. Sharded cells run without memoization (the
	// memoized evaluator is sequential-only); apart from the memo telemetry
	// a cell streams the same records at every shard count.
	Shards int `json:"shards,omitempty"`
	// Params carries the entry-specific scenario knobs shared by every cell.
	Params scenario.Params `json:"params,omitzero"`
	// MinTrials is the number of trials every cell always runs
	// (0 means DefaultMinTrials; a CI target raises it to at least 3).
	MinTrials int `json:"min_trials,omitempty"`
	// MaxTrials caps adaptive cells; it must be ≥ the effective MinTrials
	// when CITarget is set and is ignored otherwise.
	MaxTrials int `json:"max_trials,omitempty"`
	// CITarget, when positive, stops a cell as soon as at least MinTrials
	// trials ran and the relative 95% CI half-width of the primary metric is
	// ≤ CITarget (e.g. 0.05 = ±5% of the mean). 0 runs exactly MinTrials.
	// Cells that never record the metric (e.g. stab_* when no run reaches
	// legitimacy) cannot be assessed and run to MaxTrials.
	CITarget float64 `json:"ci_target,omitempty"`
	// Metric is the primary metric driving CITarget and the default Compare
	// axis; "" means moves.
	Metric string `json:"metric,omitempty"`
	// RecordTime adds wall-clock duration_ns to every trial record. It is
	// off by default because timings are non-deterministic: a resumed
	// campaign no longer reproduces an uninterrupted one byte-for-byte.
	RecordTime bool `json:"record_time,omitempty"`
	// ProfileSteps, when positive, attaches an engine phase profiler to
	// every trial, sampling every ProfileSteps-th step, and adds the
	// phase_* timing metrics to each trial record. Off by default for the
	// same reason as RecordTime: timings are non-deterministic, so profiled
	// streams are not byte-reproducible.
	ProfileSteps int `json:"profile_steps,omitempty"`
	// MemoOff disables the per-cell transition memoization (the zero value
	// keeps it on: each cell's first satisfiable trial fills a shared
	// read-only guard cache for the rest of the cell). Measurements are
	// bit-identical either way; the switch only removes the memo_hit_rate
	// metric from the records — which is why it is part of the spec, and a
	// stream cannot be resumed under the opposite setting.
	MemoOff bool `json:"memo_off,omitempty"`
}

// LoadSpec reads and validates a JSON campaign spec file.
func LoadSpec(path string) (Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Spec{}, fmt.Errorf("campaign: read spec: %w", err)
	}
	var s Spec
	if err := json.Unmarshal(data, &s); err != nil {
		return Spec{}, fmt.Errorf("campaign: parse spec %s: %w", path, err)
	}
	if err := s.Validate(); err != nil {
		return Spec{}, fmt.Errorf("campaign: spec %s: %w", path, err)
	}
	return s, nil
}

// Validate checks the trial policy and that every axis resolves to a
// scenario registry entry.
func (s Spec) Validate() error {
	if !specIDPattern.MatchString(s.ID) {
		return fmt.Errorf("campaign: invalid id %q (want %s)", s.ID, specIDPattern)
	}
	if s.Metric != "" && !validMetric(s.Metric) {
		return fmt.Errorf("campaign: unknown metric %q (known: %v)", s.Metric, Metrics())
	}
	if s.Metric == MetricDuration && !s.RecordTime {
		return fmt.Errorf("campaign: metric %q needs record_time", MetricDuration)
	}
	if strings.HasPrefix(s.Metric, MetricPhasePrefix) && s.ProfileSteps <= 0 {
		return fmt.Errorf("campaign: metric %q needs profile_steps", s.Metric)
	}
	if s.ProfileSteps < 0 {
		return fmt.Errorf("campaign: negative profile_steps")
	}
	if s.MinTrials < 0 || s.MaxTrials < 0 {
		return fmt.Errorf("campaign: negative trial counts")
	}
	if s.Shards < 0 {
		return fmt.Errorf("campaign: negative shards")
	}
	for _, n := range s.Sizes {
		if n < 1 {
			return fmt.Errorf("campaign: size %d below 1", n)
		}
	}
	if s.CITarget < 0 {
		return fmt.Errorf("campaign: negative ci_target")
	}
	if s.CITarget > 0 {
		if s.MaxTrials == 0 {
			return fmt.Errorf("campaign: ci_target needs max_trials")
		}
		if min, _ := s.trialBounds(); s.MaxTrials < min {
			return fmt.Errorf("campaign: max_trials %d below the effective min_trials %d", s.MaxTrials, min)
		}
	}
	return s.sweep().Validate()
}

// sweep maps the Spec axes onto the scenario cross-product it covers.
func (s Spec) sweep() scenario.Sweep {
	return scenario.Sweep{
		Algorithms: s.Algorithms,
		Topologies: s.Topologies,
		Daemons:    s.Daemons,
		Faults:     s.Faults,
		Churns:     s.Churns,
		Sizes:      s.Sizes,
		Seed:       s.Seed,
		SeedStride: s.SeedStride,
		MaxSteps:   s.MaxSteps,
		Shards:     s.Shards,
		Params:     s.Params,
		Trials:     1, // trials are driven per cell by the campaign runner
	}
}

// PrimaryMetric returns the metric driving adaptive stopping and the default
// Compare axis.
func (s Spec) PrimaryMetric() string {
	if s.Metric == "" {
		return MetricMoves
	}
	return s.Metric
}

// trialBounds returns the effective [min, max] trial counts of every cell.
func (s Spec) trialBounds() (min, max int) {
	min = s.MinTrials
	if min <= 0 {
		min = DefaultMinTrials
	}
	if s.CITarget > 0 && min < adaptiveMinTrials {
		min = adaptiveMinTrials
	}
	max = s.MaxTrials
	if s.CITarget <= 0 || max < min {
		max = min
	}
	return min, max
}

func validMetric(name string) bool {
	for _, m := range Metrics() {
		if m == name {
			return true
		}
	}
	// The phase-timing metrics are open-ended (phase names come from the
	// engine), so they are validated by prefix; Validate additionally ties
	// them to ProfileSteps.
	return len(name) > len(MetricPhasePrefix) && strings.HasPrefix(name, MetricPhasePrefix)
}

// CellKey identifies one cell of a campaign: one point of the sweep
// cross-product.
type CellKey struct {
	Algorithm string `json:"algorithm"`
	Topology  string `json:"topology"`
	N         int    `json:"n"`
	Daemon    string `json:"daemon"`
	Fault     string `json:"fault"`
	// Churn is the churn schedule of the cell; it marshals away for static
	// cells, so streams and baselines from churn-free campaigns keep their
	// pre-churn byte encoding.
	Churn string `json:"churn,omitempty"`
}

func cellKey(c scenario.Cell) CellKey {
	return CellKey{Algorithm: c.Algorithm, Topology: c.Topology, N: c.N, Daemon: c.Daemon, Fault: c.Fault, Churn: c.Churn}
}

// String renders the key compactly ("unison/ring n=8 synchronous none").
func (k CellKey) String() string {
	s := fmt.Sprintf("%s/%s n=%d %s %s", k.Algorithm, k.Topology, k.N, k.Daemon, k.Fault)
	if k.Churn != "" {
		s += " " + k.Churn
	}
	return s
}

// TrialRecord is one line of a campaign's JSONL stream: the outcome of one
// seeded execution of one cell. Records are written in (cell, trial) order
// as trials complete; map keys marshal sorted, so the bytes of a record are
// a pure function of the trial's seed and the binary.
type TrialRecord struct {
	// Type is "trial"; the first line of a stream is a "campaign" header.
	Type string `json:"type"`
	CellKey
	// Trial is the repetition index within the cell; Seed is the derived
	// seed the trial ran under.
	Trial int   `json:"trial"`
	Seed  int64 `json:"seed"`
	// Skipped reports a cell unsatisfiable on its resolved topology for this
	// seed (e.g. an alliance requirement exceeding a node degree); skipped
	// trials carry no metrics and never count as violations.
	Skipped bool `json:"skipped,omitempty"`
	// OK is the correctness verdict of the algorithm's own output check.
	OK bool `json:"ok"`
	// Metrics holds the per-trial measurements by metric name.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// CellAggregate is the aggregated outcome of one cell: the per-metric
// statistics over its recorded (non-skipped) trials.
type CellAggregate struct {
	Cell CellKey `json:"cell"`
	// Trials counts the recorded trials, including skipped ones.
	Trials int `json:"trials"`
	// Skipped reports a cell all of whose trials were unsatisfiable.
	Skipped bool `json:"skipped,omitempty"`
	// OK reports that every non-skipped trial passed its correctness check.
	OK bool `json:"ok"`
	// Metrics aggregates each recorded metric over the non-skipped trials.
	Metrics map[string]stats.Aggregate `json:"metrics,omitempty"`
}

// aggregateCell reduces a cell's trial records to their aggregate.
func aggregateCell(key CellKey, recs []TrialRecord) CellAggregate {
	agg := CellAggregate{Cell: key, Trials: len(recs), OK: true}
	samples := make(map[string][]float64)
	measured := 0
	for _, r := range recs {
		if r.Skipped {
			continue
		}
		measured++
		agg.OK = agg.OK && r.OK
		for name, v := range r.Metrics {
			samples[name] = append(samples[name], v)
		}
	}
	if measured == 0 {
		agg.Skipped = true
		return agg
	}
	agg.Metrics = make(map[string]stats.Aggregate, len(samples))
	for name, xs := range samples {
		agg.Metrics[name] = stats.AggregateSamples(xs)
	}
	return agg
}
