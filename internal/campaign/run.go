package campaign

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"time"

	"sdr/internal/bench"
	"sdr/internal/obs"
	"sdr/internal/scenario"
	"sdr/internal/sim"
	"sdr/internal/stats"
)

// Options configures one campaign execution.
type Options struct {
	// Parallel bounds the number of concurrently executed trials; ≤ 1 runs
	// sequentially. It changes wall-clock time only: the JSONL stream and
	// the aggregates are identical for every value.
	Parallel int
	// Resume permits continuing an existing JSONL stream from its last
	// completed trial. Without it an existing output file is an error.
	Resume bool
	// Progress, when non-nil, receives one line per completed cell.
	Progress io.Writer
	// Interrupt, when non-nil, requests a graceful stop: the channel is
	// polled synchronously before every trial wave, and once it is closed
	// Run flushes the sink (every completed trial is already durable) and
	// returns ErrInterrupted. The stream is a clean resumable prefix, so a
	// later Run with Resume continues it to the byte-identical full stream.
	Interrupt <-chan struct{}
	// Context, when non-nil, cancels the campaign with the same
	// record-boundary semantics as Interrupt: no new trial starts after
	// cancellation, in-flight trials complete, and the recorded stream is a
	// clean resumable prefix. internal/server aborts and drains jobs
	// through it.
	Context context.Context
}

// ErrInterrupted reports a campaign stopped by Options.Interrupt or a
// cancelled Options.Context. The stream holds every trial completed before
// the stop and can be resumed.
var ErrInterrupted = errors.New("campaign: interrupted")

// interrupted reports whether the interrupt channel is closed or the
// context is cancelled.
func (o Options) interrupted() bool {
	select {
	case <-o.Interrupt:
		return true
	default:
	}
	return o.Context != nil && o.Context.Err() != nil
}

// context returns the cancellation context trial waves run under.
func (o Options) context() context.Context {
	if o.Context != nil {
		return o.Context
	}
	return context.Background()
}

// Result is a finished campaign: the spec and the per-cell aggregates, in
// sweep cell order.
type Result struct {
	Spec  Spec
	Cells []CellAggregate
}

// Run executes the campaign described by spec, streaming every trial record
// to the JSONL file at path, and returns the per-cell aggregates. Cells run
// in sweep order; within a cell, trials are fanned out in waves over the
// bench worker pool but recorded strictly in trial order, and — when the
// spec sets a CI target — the stopping rule is re-evaluated after every
// recorded trial, so the stream is independent of Parallel and of any
// interruption/resume history.
func Run(spec Spec, path string, opts Options) (*Result, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	sw := spec.sweep()
	cells := sw.Cells()

	existing := make([][]TrialRecord, len(cells))
	var out *sink
	if _, err := os.Stat(path); err == nil && opts.Resume {
		recs, goodSize, err := readStream(path, spec)
		if err != nil {
			return nil, err
		}
		if existing, err = groupRecords(spec, cells, recs); err != nil {
			return nil, err
		}
		if out, err = resumeSink(path, goodSize); err != nil {
			return nil, err
		}
	} else {
		// A resume of a not-yet-started campaign starts it; an existing file
		// without Resume is refused by newSink.
		var err error
		if out, err = newSink(path, spec); err != nil {
			return nil, err
		}
	}
	res, err := runStream(spec, sw, cells, existing, out, opts)
	cerr := out.Close()
	if err != nil {
		return nil, err
	}
	if cerr != nil {
		return nil, cerr
	}
	return res, nil
}

// RunSink executes the campaign described by spec against an arbitrary Sink:
// the header line, then every trial record, exactly as Run writes them to
// the JSONL file — the entry point internal/server jobs run through, so
// served streams are byte-identical to offline files. Unlike Run it always
// starts fresh (serving resumes by re-reading the sink's lines, not by
// re-running), and cancellation arrives through Options.Context.
func RunSink(spec Spec, out Sink, opts Options) (*Result, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	sw := spec.sweep()
	cells := sw.Cells()
	if err := out.WriteLine(fileHeader{Type: "campaign", Spec: spec}); err != nil {
		return nil, err
	}
	return runStream(spec, sw, cells, make([][]TrialRecord, len(cells)), out, opts)
}

// runStream is the campaign core shared by Run (file sink) and RunSink
// (caller-provided sink): it drives every cell through its trial waves,
// records strictly in trial order, and stops at a record boundary when
// interrupted or cancelled.
func runStream(spec Spec, sw scenario.Sweep, cells []scenario.Cell, existing [][]TrialRecord, out Sink, opts Options) (*Result, error) {
	_, maxTrials := spec.trialBounds()
	result := &Result{Spec: spec, Cells: make([]CellAggregate, 0, len(cells))}
	for ci, cell := range cells {
		recs := existing[ci]
		// Per-cell transition memo: the cell's first satisfiable trial runs
		// alone, fills the share's table and donates it; every later trial
		// reads it frozen. Keeping the donor designated (rather than letting
		// concurrent trials race to donate) makes the recorded hit rates as
		// independent of Parallel as the cost metrics. Sharded cells run
		// unmemoized: the memoized evaluator is sequential-only (see
		// sim.WithShards), so a sharded campaign simply drops the
		// memo_hit_rate metric.
		var share *sim.MemoShare
		if !spec.MemoOff && spec.Shards <= 1 {
			share = sim.NewMemoShare(0)
		}
		donated := false
		// Replay the resumed prefix into the accumulator; groupRecords has
		// already rejected prefixes that overshoot the stopping rule, so the
		// cell is complete iff the rule fires at the last record.
		var acc stopAccum
		done := false
		donorTrial := -1
		for i, r := range recs {
			acc.observe(spec, r)
			done = spec.stopAfter(i+1, &acc)
			if donorTrial < 0 && !r.Skipped {
				donorTrial = r.Trial
			}
		}
		if share != nil && donorTrial >= 0 {
			donated = true
			if !done {
				// Resume warm-up: reconstruct the frozen table the interrupted
				// run's remaining trials would have seen by re-running the
				// cell's donor trial; its record is already in the stream and
				// the re-run's is discarded.
				if tr := runTrial(sw, cell, donorTrial, false, 0, sim.WithMemo(share)); tr.err != nil {
					return nil, tr.err
				}
			}
		}
		for !done {
			if opts.interrupted() {
				return nil, fmt.Errorf("%w before cell %s", ErrInterrupted, cellKey(cell))
			}
			// One wave of trials: sized by the worker budget (bounded
			// memory), recorded in trial order, cut short the moment the
			// stopping rule fires so the stream never depends on Parallel.
			// While the memo donor is still pending (every earlier trial was
			// skipped as unsatisfiable) waves stay solo.
			wave := opts.Parallel
			if share != nil && !donated {
				wave = 1
			}
			if wave < 1 {
				wave = 1
			}
			if rest := maxTrials - len(recs); wave > rest {
				wave = rest
			}
			first := len(recs)
			memoOpts := memoTrialOpt(share, donated)
			batch := bench.MapGrid(opts.context(), opts.Parallel, 1, wave, func(_, k int) trialOutcome {
				tr := runTrial(sw, cells[ci], first+k, spec.RecordTime, spec.ProfileSteps, memoOpts...)
				tr.executed = true
				return tr
			})
			for _, tr := range batch[0] {
				if !tr.executed {
					// The context was cancelled mid-wave. Executed trials form
					// a prefix of the wave (MapGrid dispatches in order
					// and lets in-flight calls finish), and every one of them
					// is already recorded — the stream is a clean resumable
					// prefix cut at a record boundary.
					return nil, fmt.Errorf("%w in cell %s", ErrInterrupted, cellKey(cell))
				}
				if tr.err != nil {
					return nil, tr.err
				}
				recs = append(recs, tr.rec)
				acc.observe(spec, tr.rec)
				if !tr.rec.Skipped {
					donated = true
				}
				if err := out.WriteLine(tr.rec); err != nil {
					return nil, err
				}
				if spec.stopAfter(len(recs), &acc) {
					done = true
					break // discard speculative trials beyond the stop point
				}
			}
		}
		agg := aggregateCell(cellKey(cell), recs)
		result.Cells = append(result.Cells, agg)
		if opts.Progress != nil {
			fmt.Fprintf(opts.Progress, "  %-44s %s\n", agg.Cell, progressSummary(spec, agg))
		}
	}
	return result, nil
}

// trialOutcome carries one executed trial through the worker pool. executed
// distinguishes a trial that ran from a zero value left by a cancelled
// dispatch.
type trialOutcome struct {
	rec      TrialRecord
	err      error
	executed bool
}

// memoTrialOpt returns the memo option for one trial of a cell: the donating
// (cache-filling) protocol until a satisfiable trial has donated the cell's
// table, the read-only protocol afterwards, nothing when memoization is off.
func memoTrialOpt(share *sim.MemoShare, donated bool) []sim.Option {
	if share == nil {
		return nil
	}
	if donated {
		return []sim.Option{sim.WithMemoReadOnly(share)}
	}
	return []sim.Option{sim.WithMemo(share)}
}

// runTrial resolves and executes one (cell, trial) point and extracts its
// metric record. Unsatisfiable cells record a skipped trial; any other
// resolution error aborts the campaign. When profileEvery > 0 the run is
// profiled (every profileEvery-th step phase-timed, see obs.PhaseProfiler)
// and the per-phase means land in the record as phase_* metrics — wall-clock
// measurements, so like duration_ns they are excluded from -compare's
// deterministic byte-identity expectations.
func runTrial(sw scenario.Sweep, cell scenario.Cell, trial int, recordTime bool, profileEvery int, memo ...sim.Option) trialOutcome {
	sp := sw.Trial(cell, trial)
	rec := TrialRecord{Type: "trial", CellKey: cellKey(cell), Trial: trial, Seed: sp.Seed}
	run, err := sp.Resolve()
	if err != nil {
		if errors.Is(err, scenario.ErrUnsatisfiable) {
			rec.Skipped = true
			rec.OK = true
			return trialOutcome{rec: rec}
		}
		return trialOutcome{err: err}
	}
	opts := memo
	var prof *obs.PhaseProfiler
	if profileEvery > 0 {
		prof = obs.NewPhaseProfiler(profileEvery)
		// Full slice expression: appending must never scribble on a shared
		// memo option slice another trial of the wave is reading.
		opts = append(opts[:len(opts):len(opts)], sim.WithProfiler(prof))
	}
	start := time.Now()
	res := run.Execute(opts...)
	elapsed := time.Since(start)
	rec.OK = run.Report(res).OK
	rec.Metrics = map[string]float64{
		MetricMoves:  float64(res.Moves),
		MetricRounds: float64(res.Rounds),
		MetricSteps:  float64(res.Steps),
	}
	if res.StabilizationMoves >= 0 {
		rec.Metrics[MetricStabMoves] = float64(res.StabilizationMoves)
		rec.Metrics[MetricStabRounds] = float64(res.StabilizationRounds)
		rec.Metrics[MetricStabSteps] = float64(res.StabilizationSteps)
	}
	if run.Spec.Churn != "" {
		rec.Metrics[MetricAvailability] = res.Availability()
		var rounds, moves, steps, recovered float64
		for _, ev := range res.Events {
			if ev.Recovered {
				recovered++
				rounds += float64(ev.RecoveryRounds)
				moves += float64(ev.RecoveryMoves)
				steps += float64(ev.RecoverySteps)
			}
		}
		// Per-trial recovery cost: the mean over the trial's recovered
		// events. A trial none of whose events recovered within the step
		// budget records no recovery metrics (and fails its check below).
		if recovered > 0 {
			rec.Metrics[MetricRecoveryRounds] = rounds / recovered
			rec.Metrics[MetricRecoveryMoves] = moves / recovered
			rec.Metrics[MetricRecoverySteps] = steps / recovered
		}
		for _, ev := range res.Events {
			if !ev.Recovered {
				rec.OK = false
			}
		}
	}
	if res.Memo.Lookups() > 0 {
		rec.Metrics[MetricMemoHitRate] = res.Memo.HitRate()
	}
	if recordTime {
		rec.Metrics[MetricDuration] = float64(elapsed.Nanoseconds())
	}
	if prof != nil {
		for name, v := range prof.Profile().Metrics() {
			rec.Metrics[name] = v
		}
	}
	return trialOutcome{rec: rec}
}

// stopAccum incrementally accumulates the primary-metric samples of one
// cell in record order. The streaming writer and the resume validator share
// it (and stopAfter), so the adaptive stopping rule costs O(1) per recorded
// trial and — crucially — both paths run the identical floating-point
// arithmetic: a resumed campaign makes exactly the decisions the
// uninterrupted one would.
type stopAccum struct {
	n          int
	sum, sumSq float64
}

// observe accounts one record's primary metric (skipped trials and trials
// without the metric contribute nothing).
func (a *stopAccum) observe(s Spec, r TrialRecord) {
	if r.Skipped {
		return
	}
	if v, ok := r.Metrics[s.PrimaryMetric()]; ok {
		a.n++
		a.sum += v
		a.sumSq += v * v
	}
}

// relHalfWidthLE reports whether the relative Student-t 95% CI half-width of
// the accumulated samples is within target. A zero mean stops only when the
// interval is exactly degenerate (all samples zero).
func (a *stopAccum) relHalfWidthLE(target float64) bool {
	if a.n < 2 {
		return false
	}
	n := float64(a.n)
	mean := a.sum / n
	variance := (a.sumSq - a.sum*a.sum/n) / (n - 1)
	if variance < 0 {
		variance = 0 // guard the one-pass formula against rounding
	}
	half := stats.TQuantile975(a.n-1) * math.Sqrt(variance/n)
	if mean == 0 {
		return half == 0
	}
	return half/math.Abs(mean) <= target
}

// stopAfter reports whether a cell is complete after count recorded trials
// whose primary metric accumulated into acc.
func (s Spec) stopAfter(count int, acc *stopAccum) bool {
	minTrials, maxTrials := s.trialBounds()
	if count >= maxTrials {
		return true
	}
	if count < minTrials {
		return false
	}
	if s.CITarget <= 0 {
		return true // fixed trial count: stop exactly at the minimum
	}
	return acc.relHalfWidthLE(s.CITarget)
}

// stopIndex returns the index of the recorded trial after which the cell is
// complete, or -1 while more trials are needed. A well-formed stream stops a
// cell exactly at its stop index, which depends only on the spec and the
// recorded metric values — the property resume correctness rests on.
func (s Spec) stopIndex(recs []TrialRecord) int {
	var acc stopAccum
	for t, r := range recs {
		acc.observe(s, r)
		if s.stopAfter(t+1, &acc) {
			return t
		}
	}
	return -1
}

// groupRecords maps a resumed stream's records onto cell indices and checks
// that they form a resumable prefix: records arrive in sweep cell order with
// consecutive trial indices, and every recorded cell except the last is
// complete under the stopping rule (a well-formed writer never produces
// anything else).
func groupRecords(spec Spec, cells []scenario.Cell, recs []TrialRecord) ([][]TrialRecord, error) {
	index := make(map[CellKey]int, len(cells))
	for i, c := range cells {
		index[cellKey(c)] = i
	}
	grouped := make([][]TrialRecord, len(cells))
	current := 0
	for _, rec := range recs {
		ci, ok := index[rec.CellKey]
		if !ok {
			return nil, fmt.Errorf("campaign: resumed stream contains cell %s outside the spec", rec.CellKey)
		}
		if ci != current {
			if ci != current+1 {
				return nil, fmt.Errorf("campaign: resumed stream jumps from cell %s to %s", cellKey(cells[current]), rec.CellKey)
			}
			if stop := spec.stopIndex(grouped[current]); stop < 0 {
				return nil, fmt.Errorf("campaign: resumed stream advances past incomplete cell %s", cellKey(cells[current]))
			}
			current = ci
		}
		if rec.Trial != len(grouped[ci]) {
			return nil, fmt.Errorf("campaign: resumed stream has trial %d of %s where trial %d was expected",
				rec.Trial, rec.CellKey, len(grouped[ci]))
		}
		grouped[ci] = append(grouped[ci], rec)
	}
	for ci, g := range grouped {
		if stop := spec.stopIndex(g); stop >= 0 && stop < len(g)-1 {
			return nil, fmt.Errorf("campaign: resumed stream overshoots the stopping rule in cell %s", cellKey(cells[ci]))
		}
	}
	return grouped, nil
}

// progressSummary renders one cell's outcome for the progress stream.
func progressSummary(spec Spec, agg CellAggregate) string {
	if agg.Skipped {
		return fmt.Sprintf("skipped (%d unsatisfiable trials)", agg.Trials)
	}
	verdict := "ok"
	if !agg.OK {
		verdict = "FAILED"
	}
	m, measured := agg.Metrics[spec.PrimaryMetric()]
	if !measured {
		return fmt.Sprintf("trials=%d %s=unmeasured %s", agg.Trials, spec.PrimaryMetric(), verdict)
	}
	return fmt.Sprintf("trials=%d %s=%.1f±%.1f %s", agg.Trials, spec.PrimaryMetric(), m.Mean, m.CIHalfWidth(), verdict)
}
