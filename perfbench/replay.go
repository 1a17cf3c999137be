package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"sdr/internal/campaign"
	"sdr/internal/graph"
	"sdr/internal/obs"
	"sdr/internal/scenario"
	"sdr/internal/sim"
)

// The replay is the benchmark's own copy of the trial pipeline that
// campaign.RunSink drives: Sweep.Trial → Spec.Resolve → Run.Execute (with
// the campaign's per-cell memo protocol) → Run.Report → MarshalLine. It
// runs sequentially so that spans can be put around each call; the traced
// run checks that it writes the same record bytes as RunSink.

// sweepOf maps a campaign spec onto the scenario sweep it covers, the same
// mapping the campaign layer makes.
func sweepOf(s campaign.Spec) scenario.Sweep {
	return scenario.Sweep{
		Algorithms: s.Algorithms, Topologies: s.Topologies, Daemons: s.Daemons,
		Faults: s.Faults, Churns: s.Churns, Sizes: s.Sizes, Seed: s.Seed,
		SeedStride: s.SeedStride, MaxSteps: s.MaxSteps, Shards: s.Shards,
		Params: s.Params, Trials: 1,
	}
}

// trialOut is one replayed trial: its record bytes and what each layer
// spent on it.
type trialOut struct {
	line                 []byte
	ok, skipped, churned bool
	resolve, run, report time.Duration
	moves                int
	allocBytes           float64
	memo                 sim.MemoStats
	profile              obs.EngineProfile
	events               []sim.EventRecovery
	availability         float64
	injectTime           time.Duration
	start                *sim.Configuration
	engine               *sim.Engine
	net                  *sim.Network
	daemon               sim.Daemon
}

// timedInjector wraps the resolved churn injector and sums the time spent
// in its Inject calls.
type timedInjector struct {
	inner sim.Injector
	total time.Duration
}

func (t *timedInjector) Inject(p sim.InjectionPoint) *sim.Injection {
	start := time.Now()
	inj := t.inner.Inject(p)
	t.total += time.Since(start)
	return inj
}

func (t *timedInjector) Done() bool { return t.inner.Done() }

// replay runs every trial of every spec in order. With traced set it
// records spans (op ids from opBase on), profiles every profileEvery-th
// engine step and times the churn injector; keepRuns keeps each trial's
// start configuration and engine for the micro-measurements.
func replay(specs []campaign.Spec, tr *tracer, opBase, profileEvery int, keepRuns bool) ([]trialOut, error) {
	var outs []trialOut
	op := opBase
	for _, spec := range specs {
		sw := sweepOf(spec)
		for _, cell := range sw.Cells() {
			var share *sim.MemoShare
			if !spec.MemoOff && spec.Shards <= 1 {
				share = sim.NewMemoShare(0)
			}
			donated := false
			for t := 0; t < spec.MinTrials; t++ {
				out, err := replayTrial(sw, cell, t, share, donated, tr, op, profileEvery)
				op++
				if err != nil {
					return nil, err
				}
				if !out.skipped {
					donated = true
				}
				if !keepRuns {
					out.start, out.engine, out.net, out.daemon = nil, nil, nil, nil
				}
				outs = append(outs, out)
			}
		}
	}
	return outs, nil
}

func replayTrial(sw scenario.Sweep, cell scenario.Cell, trial int, share *sim.MemoShare, donated bool,
	tr *tracer, op, profileEvery int) (trialOut, error) {
	var out trialOut
	root := tr.begin("trial", op, -1)
	defer tr.end(root)

	sp := sw.Trial(cell, trial)
	rec := campaign.TrialRecord{Type: "trial", CellKey: campaign.CellKey{
		Algorithm: cell.Algorithm, Topology: cell.Topology, N: cell.N, Daemon: cell.Daemon,
		Fault: cell.Fault, Churn: cell.Churn}, Trial: trial, Seed: sp.Seed}

	s := tr.begin("scenario.resolve", op, root)
	t0 := time.Now()
	run, err := sp.Resolve()
	out.resolve = time.Since(t0)
	tr.end(s)
	if err != nil {
		if !errors.Is(err, scenario.ErrUnsatisfiable) {
			return out, fmt.Errorf("resolve %v trial %d: %w", cell, trial, err)
		}
		rec.Skipped, rec.OK = true, true
		out.skipped = true
		return marshalRecord(out, rec, tr, op, root)
	}

	var opts []sim.Option
	if share != nil {
		if donated {
			opts = append(opts, sim.WithMemoReadOnly(share))
		} else {
			opts = append(opts, sim.WithMemo(share))
		}
	}
	var prof *obs.PhaseProfiler
	var inj *timedInjector
	if tr != nil {
		prof = obs.NewPhaseProfiler(profileEvery)
		opts = append(opts, sim.WithProfiler(prof))
		if run.Churn != nil {
			inj = &timedInjector{inner: run.Churn}
			opts = append(opts, sim.WithInjector(inj))
		}
	}
	s = tr.begin("sim.run", op, root)
	before := readCPU()
	t0 = time.Now()
	res := run.Execute(opts...)
	out.run = time.Since(t0)
	out.allocBytes = readCPU().allocBytes - before.allocBytes
	tr.end(s)

	s = tr.begin("scenario.report", op, root)
	t0 = time.Now()
	rec.OK = run.Report(res).OK
	out.report = time.Since(t0)
	tr.end(s)

	rec.Metrics = map[string]float64{
		campaign.MetricMoves:  float64(res.Moves),
		campaign.MetricRounds: float64(res.Rounds),
		campaign.MetricSteps:  float64(res.Steps),
	}
	if res.StabilizationMoves >= 0 {
		rec.Metrics[campaign.MetricStabMoves] = float64(res.StabilizationMoves)
		rec.Metrics[campaign.MetricStabRounds] = float64(res.StabilizationRounds)
		rec.Metrics[campaign.MetricStabSteps] = float64(res.StabilizationSteps)
	}
	if run.Spec.Churn != "" {
		out.churned = true
		out.availability = res.Availability()
		rec.Metrics[campaign.MetricAvailability] = out.availability
		var rounds, moves, steps, recovered float64
		for _, ev := range res.Events {
			if ev.Recovered {
				recovered++
				rounds += float64(ev.RecoveryRounds)
				moves += float64(ev.RecoveryMoves)
				steps += float64(ev.RecoverySteps)
			} else {
				rec.OK = false
			}
		}
		if recovered > 0 {
			rec.Metrics[campaign.MetricRecoveryRounds] = rounds / recovered
			rec.Metrics[campaign.MetricRecoveryMoves] = moves / recovered
			rec.Metrics[campaign.MetricRecoverySteps] = steps / recovered
		}
	}
	if res.Memo.Lookups() > 0 {
		rec.Metrics[campaign.MetricMemoHitRate] = res.Memo.HitRate()
	}
	out.moves = res.Moves
	out.memo = res.Memo
	out.events = res.Events
	if prof != nil {
		out.profile = prof.Profile()
	}
	if inj != nil {
		out.injectTime = inj.total
	}
	out.start, out.engine, out.net, out.daemon = run.Start, run.Engine, run.Net, run.Daemon
	return marshalRecord(out, rec, tr, op, root)
}

func marshalRecord(out trialOut, rec campaign.TrialRecord, tr *tracer, op, root int) (trialOut, error) {
	s := tr.begin("campaign.marshal", op, root)
	line, err := campaign.MarshalLine(rec)
	tr.end(s)
	if err != nil {
		return out, err
	}
	out.line, out.ok = line, rec.OK
	return out, nil
}

// replayLayers fills the per-layer metrics a traced replay measures.
func replayLayers(m map[string]float64, outs []trialOut, tr *tracer) {
	var resolves, runs, reports []float64
	var moves, alloc, runNS float64
	var memo sim.MemoStats
	phases := map[string]time.Duration{}
	var stepWall time.Duration
	var events, recovered int
	var injectTime time.Duration
	var recoverySteps, availability float64
	churned := 0
	for _, o := range outs {
		resolves = append(resolves, float64(o.resolve))
		if o.skipped {
			continue
		}
		runs = append(runs, float64(o.run))
		reports = append(reports, float64(o.report))
		moves += float64(o.moves)
		alloc += o.allocBytes
		runNS += float64(o.run)
		memo.Add(o.memo)
		for _, ph := range o.profile.Phases {
			phases[ph.Phase] += ph.Total
		}
		stepWall += o.profile.StepWall
		if o.churned {
			churned++
			availability += o.availability
			events += len(o.events)
			injectTime += o.injectTime
			for _, ev := range o.events {
				if ev.Recovered {
					recovered++
					recoverySteps += float64(ev.RecoverySteps)
				}
			}
		}
	}
	m["scenario.resolve_ms_p50"] = median(resolves) / 1e6
	m["sim.run_ms_p50"] = median(runs) / 1e6
	m["scenario.report_ms_p50"] = median(reports) / 1e6
	if moves > 0 {
		m["sim.ns_per_move"] = runNS / moves
		m["sim.alloc_bytes_per_move"] = alloc / moves
	}
	m["sim.memo_lookups"] = float64(memo.Lookups())
	m["sim.memo_hit_rate"] = memo.HitRate()
	if stepWall > 0 {
		for _, name := range []string{obs.PhaseSelect, obs.PhaseExecute, obs.PhaseGuard, obs.PhaseAccount, obs.PhaseMerge, obs.PhaseBoundary} {
			m["sim.phase_"+name+"_share"] = float64(phases[name]) / float64(stepWall)
		}
	}
	if churned > 0 {
		m["churn.events"] = float64(events)
		m["churn.availability"] = availability / float64(churned)
		if events > 0 {
			m["churn.inject_us"] = float64(injectTime) / float64(events) / 1e3
		}
		if recovered > 0 {
			m["churn.recovery_steps_mean"] = recoverySteps / float64(recovered)
		}
	}
	self, root, coverage := tr.layerTimes()
	if root > 0 {
		m["scenario.resolve_share"] = float64(self["scenario.resolve"]) / float64(root)
		m["sim.run_share"] = float64(self["sim.run"]) / float64(root)
		m["scenario.report_share"] = float64(self["scenario.report"]) / float64(root)
	}
	m["trace.coverage"] = coverage
}

// microLayers measures the per-call costs of the lowest layers on the
// replayed trials' own inputs: a CSR Degree/Neighbor sweep, guard
// evaluation (Evaluator.Enabled) and daemon selection (Daemon.Select on the
// enabled set of each start configuration), each timed over a loop long
// enough for a millisecond-scale timer.
func microLayers(m map[string]float64, outs []trialOut) {
	var nbSteps, nbTime, enCalls, enTime, selProcs, selTime float64
	for _, o := range outs {
		if o.start == nil {
			continue
		}
		steps, d := neighborSweep(o.net.Graph(), 1<<21)
		nbSteps += steps
		nbTime += float64(d)

		ev := sim.NewEvaluator(o.engine.Algorithm(), o.net)
		n := o.net.N()
		reps := max(1, (1<<17)/n)
		t0 := time.Now()
		for r := 0; r < reps; r++ {
			for u := 0; u < n; u++ {
				ev.Enabled(o.start, u)
			}
		}
		enTime += float64(time.Since(t0))
		enCalls += float64(reps * n)

		enabled := ev.AppendEnabled(nil, o.start)
		if len(enabled) == 0 {
			continue
		}
		sel := sim.Selection{Net: o.net, Alg: o.engine.Algorithm(), Config: o.start, Enabled: enabled}
		buf := make([]int, len(enabled))
		reps = max(1, (1<<18)/len(enabled))
		t0 = time.Now()
		for r := 0; r < reps; r++ {
			copy(buf, enabled)
			sel.Enabled = buf
			sel.Step = r
			o.daemon.Select(sel)
		}
		selTime += float64(time.Since(t0))
		selProcs += float64(reps * len(enabled))
	}
	if nbSteps > 0 {
		m["graph.neighbor_ns"] = nbTime / nbSteps
	}
	if enCalls > 0 {
		m["sim.enabled_ns"] = enTime / enCalls
	}
	if selProcs > 0 {
		m["sim.select_ns"] = selTime / selProcs
	}
}

// neighborSweep walks every adjacency of g with Degree/Neighbor until at
// least minSteps neighbour steps were taken, and returns the steps and the
// time they took.
func neighborSweep(g *graph.Graph, minSteps int) (float64, time.Duration) {
	var steps, acc int
	t0 := time.Now()
	for steps < minSteps {
		for u := 0; u < g.N(); u++ {
			d := g.Degree(u)
			for i := 0; i < d; i++ {
				acc += g.Neighbor(u, i)
			}
			steps += d
		}
		if steps == 0 {
			break
		}
	}
	d := time.Since(t0)
	sinkInt = acc
	return float64(steps), d
}

// sinkInt keeps the neighbour sweep from being optimised away.
var sinkInt int

// buildTopologies times TopologyByName(..).Build for every distinct
// (topology, n) of the specs and returns the mean milliseconds per build.
func buildTopologies(specs []campaign.Spec, seed int64) (float64, error) {
	var total time.Duration
	builds := 0
	for _, spec := range specs {
		for _, name := range spec.Topologies {
			entry, err := scenario.TopologyByName(name)
			if err != nil {
				return 0, err
			}
			for _, n := range spec.Sizes {
				rng := rand.New(rand.NewSource(seed))
				t0 := time.Now()
				entry.Build(n, spec.Params, rng)
				total += time.Since(t0)
				builds++
			}
		}
	}
	if builds == 0 {
		return 0, nil
	}
	return float64(total) / float64(builds) / 1e6, nil
}

// marshalCost re-marshals every replayed record until at least minRecords
// were encoded and returns microseconds per record and mean record bytes.
func marshalCost(outs []trialOut, minRecords int) (us, bytes float64, err error) {
	var recs []campaign.TrialRecord
	var size float64
	for _, o := range outs {
		var r campaign.TrialRecord
		if err := json.Unmarshal(o.line, &r); err != nil {
			return 0, 0, err
		}
		recs = append(recs, r)
		size += float64(len(o.line))
	}
	if len(recs) == 0 {
		return 0, 0, nil
	}
	count := 0
	t0 := time.Now()
	for count < minRecords {
		for _, r := range recs {
			if _, err := campaign.MarshalLine(r); err != nil {
				return 0, 0, err
			}
		}
		count += len(recs)
	}
	return float64(time.Since(t0)) / float64(count) / 1e3, size / float64(len(recs)), nil
}
