package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"math/rand"
	"time"

	"sdr/internal/campaign"
	"sdr/internal/scenario"
)

// campaignWorkload runs campaign.RunSink over the cells of a sweep. Each
// cell is one request: a single-cell campaign spec with a fixed trial count
// and no CI target, memoization on as shipped. The timed window runs one
// closed-loop client calling RunSink with Parallel 1, so that every trial's
// latency shows as the gap between two records reaching the client's sink;
// a pass runs every cell's request once, and the window runs whole passes.
type campaignWorkload struct {
	cfg     config
	name    string
	sweep   campaign.Spec // the axes; one request per cell
	trials  int
	perAlg  map[string]int // trial counts that differ from trials, by algorithm
	reqs    []campaign.Spec
	trialsN int // trials per pass
}

func newCampaignChurn(cfg config) workload {
	// Unison trials carry the cooperative reset and take several times as
	// long as bfstree trials; three of them per bfstree trial keep the
	// median trial inside the unison group instead of in the gap between
	// the two groups, where it would jump from run to run.
	w := &campaignWorkload{cfg: cfg, name: "campaign-churn", trials: 1, perAlg: map[string]int{"unison": 3}, sweep: campaign.Spec{
		Algorithms: []string{"unison", "bfstree"},
		Topologies: []string{"torus", "random-regular"},
		Daemons:    []string{"distributed-random"},
		Faults:     []string{"random-all"},
		Churns:     []string{"poisson-mixed", "partition-heal"},
		Sizes:      []int{256},
	}}
	if cfg.tiny {
		w.trials, w.perAlg, w.sweep.Sizes = 1, nil, []int{48}
	}
	return w
}

// requests generates the requests of one pass from the seed: one per cell,
// in an order drawn from the seed and the same in every pass, each with its
// own campaign seed. Every pass has fresh campaign seeds, so a run covers as
// many distinct trials as it has time for.
func (w *campaignWorkload) requests(pass int) ([]campaign.Spec, error) {
	cells := sweepOf(w.sweep).Cells()
	order := rand.New(rand.NewSource(w.cfg.seed))
	order.Shuffle(len(cells), func(i, j int) { cells[i], cells[j] = cells[j], cells[i] })
	rng := rand.New(rand.NewSource(w.cfg.seed*10_007 + int64(pass)))
	reqs := make([]campaign.Spec, 0, len(cells))
	for i, c := range cells {
		spec := campaign.Spec{
			ID:         fmt.Sprintf("%s-%d-%02d", w.name, pass, i),
			Algorithms: []string{c.Algorithm},
			Topologies: []string{c.Topology},
			Daemons:    []string{c.Daemon},
			Faults:     []string{c.Fault},
			Sizes:      []int{c.N},
			Seed:       1 + rng.Int63n(1<<40),
			MinTrials:  w.trials,
		}
		if t, ok := w.perAlg[c.Algorithm]; ok {
			spec.MinTrials = t
		}
		if c.Churn != "" {
			spec.Churns = []string{c.Churn}
		}
		if err := spec.Validate(); err != nil {
			return nil, err
		}
		reqs = append(reqs, spec)
	}
	return reqs, nil
}

// setup generates the first pass's requests and, as an untimed warm-up,
// resolves every trial of them once.
func (w *campaignWorkload) setup() error {
	reqs, err := w.requests(0)
	if err != nil {
		return err
	}
	w.reqs, w.trialsN = reqs, 0
	for _, spec := range reqs {
		sw := sweepOf(spec)
		for t := 0; t < spec.MinTrials; t++ {
			if _, err := sw.Trial(sw.Cells()[0], t).Resolve(); err != nil && !errors.Is(err, scenario.ErrUnsatisfiable) {
				return fmt.Errorf("resolve %s: %w", spec.ID, err)
			}
		}
		w.trialsN += spec.MinTrials
	}
	return nil
}

func (w *campaignWorkload) close() {}

func (w *campaignWorkload) context() map[string]any {
	return map[string]any{
		"clients": 1, "parallel_per_client": 1, "trace_parallel": w.cfg.nproc, "shards": 1,
		"requests_per_pass": len(w.reqs), "trials_per_pass": w.trialsN, "n": w.sweep.Sizes[0],
		"op": "trial",
	}
}

// streamSink is the benchmark's campaign sink: it marshals and hashes every
// line, checks every trial record, and records when each record arrived.
type streamSink struct {
	h       hash.Hash
	last    time.Time
	latency []float64
	trials  int
	bad     int
	lines   [][]byte // kept only when keep is set
	keep    bool
}

func newStreamSink(start time.Time, keep bool) *streamSink {
	return &streamSink{h: sha256.New(), last: start, keep: keep}
}

func (s *streamSink) WriteLine(v any) error {
	data, err := campaign.MarshalLine(v)
	if err != nil {
		return err
	}
	s.h.Write(data)
	if s.keep {
		s.lines = append(s.lines, data)
	}
	if rec, ok := v.(campaign.TrialRecord); ok {
		now := time.Now()
		s.latency = append(s.latency, float64(now.Sub(s.last))/1e6)
		s.last = now
		s.trials++
		if !rec.OK {
			s.bad++
		}
	}
	return nil
}

// requestResult is one RunSink call's outcome.
type requestResult struct {
	digest  string
	latency []float64
	trials  int
	failed  int
	lines   [][]byte
}

func (w *campaignWorkload) request(spec campaign.Spec, parallel int, keep bool) requestResult {
	sink := newStreamSink(time.Now(), keep)
	_, err := campaign.RunSink(spec, sink, campaign.Options{Parallel: parallel})
	r := requestResult{digest: hex.EncodeToString(sink.h.Sum(nil)), latency: sink.latency,
		trials: sink.trials, failed: sink.bad, lines: sink.lines}
	if err != nil || sink.trials != spec.MinTrials {
		r.failed = spec.MinTrials
		r.trials = spec.MinTrials
	}
	return r
}

// passDigest folds the request digests of a pass, in request order.
func passDigest(rs []requestResult) string {
	parts := make([]string, len(rs))
	for i, r := range rs {
		parts[i] = r.digest
	}
	return digestOf(parts)
}

// measure runs one closed-loop client over whole passes, the first pass
// and then fresh ones, until the window has elapsed. An op is a trial, and
// each pass is a repetition of the window's op sequence: the same cells in
// the same order, with other seeds. The window's digest is the first
// pass's.
func (w *campaignWorkload) measure(seconds float64) window {
	var win window
	start := time.Now()
	for pass := 0; pass == 0 || time.Since(start).Seconds() < seconds; pass++ {
		reqs := w.reqs
		if pass > 0 {
			var err error
			if reqs, err = w.requests(pass); err != nil {
				return failAll(w.trialsN, err)
			}
		}
		rs := make([]requestResult, len(reqs))
		var latency []float64
		for i, spec := range reqs {
			rs[i] = w.request(spec, 1, false)
			win.ops += rs[i].trials
			win.failed += rs[i].failed
			latency = append(latency, rs[i].latency...)
		}
		win.addRep(latency)
		if pass == 0 {
			win.digest = passDigest(rs)
		}
	}
	win.wall = time.Since(start)
	win.attempted = win.ops
	return win
}

// trace measures the layers of one pass: the replay untraced and traced
// (tracing overhead, spans, phase profile, churn injector), RunSink at
// Parallel 1 (campaign overhead per trial, record bytes identical to the
// replay's) and at Parallel nproc (pool utilization), and the per-call
// micro-measurements on the pass's own inputs.
func (w *campaignWorkload) trace(_ float64, tr *tracer) (map[string]float64, window) {
	m := newLayerMetrics()
	var win window

	// Untraced replays before and after the traced one; their mean is the
	// untraced replay time.
	var bareWall time.Duration
	bare := func() error {
		t0 := time.Now()
		_, err := replay(w.reqs, nil, 0, 1, false)
		bareWall += time.Since(t0) / 2
		return err
	}
	if err := bare(); err != nil {
		return m, failAll(w.trialsN, err)
	}
	cpu0 := readCPU()
	t0 := time.Now()
	outs, err := replay(w.reqs, tr, 0, 4, true)
	tracedWall := time.Since(t0)
	cpu1 := readCPU()
	if err != nil {
		return m, failAll(w.trialsN, err)
	}
	if err := bare(); err != nil {
		return m, failAll(w.trialsN, err)
	}
	replayLayers(m, outs, tr)
	m["tracing_overhead_frac"] = tracedWall.Seconds()/bareWall.Seconds() - 1
	m["process.gc_cpu_frac"] = gcFrac(cpu0, cpu1)

	t0 = time.Now()
	seq := make([]requestResult, len(w.reqs))
	for i, spec := range w.reqs {
		seq[i] = w.request(spec, 1, true)
	}
	seqWall := time.Since(t0)
	t0 = time.Now()
	par := make([]requestResult, len(w.reqs))
	for i, spec := range w.reqs {
		par[i] = w.request(spec, w.cfg.nproc, false)
	}
	parWall := time.Since(t0)

	m["campaign.overhead_us_per_trial"] = (seqWall - bareWall).Seconds() / float64(w.trialsN) * 1e6
	m["campaign.pool_utilization"] = bareWall.Seconds() / (parWall.Seconds() * float64(w.cfg.nproc))

	// The replay must write the records RunSink writes, byte for byte, and
	// both runs of RunSink must agree.
	k := 0
	for i, r := range seq {
		if len(r.lines) == 0 {
			r.failed = r.trials
			r.lines = [][]byte{nil}
		}
		for _, line := range r.lines[1:] {
			if k >= len(outs) || !bytes.Equal(line, outs[k].line) {
				r.failed = r.trials
			}
			k++
		}
		if par[i].digest != r.digest {
			r.failed = r.trials
		}
		seq[i] = r
	}
	win.digest = passDigest(seq)
	for _, r := range seq {
		win.attempted += r.trials
		win.failed += r.failed
	}
	for _, o := range outs {
		win.attempted++
		if !o.ok {
			win.failed++
		}
	}

	if m["graph.build_ms"], err = buildTopologies(w.reqs, w.cfg.seed); err != nil {
		return m, failAll(w.trialsN, err)
	}
	microLayers(m, outs)
	if m["campaign.marshal_us"], m["campaign.record_bytes"], err = marshalCost(outs, 20000); err != nil {
		return m, failAll(w.trialsN, err)
	}
	return m, win
}

// failAll is the window of a run whose operations could not complete.
func failAll(n int, err error) window {
	fmt.Fprintln(stderr, "perfbench:", err)
	return window{attempted: max(n, 1), failed: max(n, 1)}
}
