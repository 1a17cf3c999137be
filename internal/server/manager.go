package server

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"sdr/internal/campaign"
	"sdr/internal/obs"
)

// Config sizes the job manager.
type Config struct {
	// Workers is the number of jobs executed concurrently; each job fans its
	// own trials out over Parallel workers of the bench pool.
	Workers int
	// QueueDepth bounds the number of accepted-but-not-started jobs; a full
	// queue is backpressure (Submit returns ErrQueueFull → HTTP 429).
	QueueDepth int
	// Parallel is the per-job trial parallelism (campaign.Options.Parallel);
	// 0 means one per CPU. Streams are identical for every value.
	Parallel int
	// ResultCache bounds the number of finished jobs whose record streams
	// (and statuses) are retained, LRU-evicted; completed jobs serve
	// duplicate submissions from this cache.
	ResultCache int
	// Registry receives the manager's metric families (job counters, queue
	// gauges, the job-duration histogram, the records counter); nil creates
	// a private registry. The HTTP layer serves it at GET /metrics.
	Registry *obs.Registry
	// Logger receives structured job-lifecycle logs (submit, dedup hit,
	// finish — each carrying the job's id and content hash); nil disables
	// them.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	if c.Parallel <= 0 {
		c.Parallel = runtime.NumCPU()
	}
	if c.ResultCache <= 0 {
		c.ResultCache = 64
	}
	if c.Registry == nil {
		c.Registry = obs.NewRegistry()
	}
	return c
}

// jobDurationBuckets are the upper bounds (milliseconds) of the job run
// duration histogram: 0.5ms to ~16s, exponential.
var jobDurationBuckets = obs.ExponentialBuckets(0.5, 2, 16)

// ErrQueueFull reports a submission rejected because the job queue is at
// capacity — the backpressure signal (HTTP 429 + Retry-After).
var ErrQueueFull = errors.New("server: job queue full")

// ErrDraining reports a submission rejected because the manager is shutting
// down (HTTP 503).
var ErrDraining = errors.New("server: draining, not accepting jobs")

// Manager owns the job lifecycle: a bounded queue feeding a bounded worker
// pool, content-hash dedup of identical (spec, seed) submissions —
// concurrent duplicates attach to the in-flight job, completed ones are
// served from a bounded LRU of result streams — and graceful drain that
// stops every in-flight campaign at a record boundary.
//
// Every counter and gauge lives in the shared obs.Registry that GET /metrics
// exposes.
type Manager struct {
	cfg      Config
	logger   *slog.Logger
	queue    chan *Job
	drainCtx context.Context
	drainAll context.CancelFunc
	wg       sync.WaitGroup

	mu       sync.Mutex
	jobs     map[string]*Job          // every retained job by id
	byHash   map[string]*Job          // dedup index: in-flight + completed-done jobs
	lru      *list.List               // finished jobs, most recently used first
	lruIndex map[string]*list.Element // job id → lru element
	draining bool
	seq      int

	memoRateSum float64
	memoRateN   int

	accepted      *obs.Counter // newly created jobs
	done          *obs.Counter
	failed        *obs.Counter
	interrupted   *obs.Counter
	panicked      *obs.Counter // failed jobs whose campaign panicked
	rejectedFull  *obs.Counter // backpressured submissions (429)
	dedupInFlight *obs.Counter
	dedupCached   *obs.Counter
	recordsTotal  *obs.Counter // campaign record lines streamed by all jobs
	running       *obs.Gauge
	jobDuration   *obs.Histogram // run durations, milliseconds

	// testJobStart, when set, is called by a worker right after claiming a
	// job and before executing it — the deterministic gate the lifecycle
	// tests block workers on.
	testJobStart func(*Job)
}

// NewManager starts the worker pool.
func NewManager(cfg Config) *Manager {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	m := &Manager{
		cfg:      cfg,
		logger:   cfg.Logger,
		queue:    make(chan *Job, cfg.QueueDepth),
		drainCtx: ctx,
		drainAll: cancel,
		jobs:     make(map[string]*Job),
		byHash:   make(map[string]*Job),
		lru:      list.New(),
		lruIndex: make(map[string]*list.Element),
	}
	reg := cfg.Registry
	m.accepted = reg.Counter("sdrd_jobs_accepted_total", "Newly created jobs (deduplicated submissions excluded).")
	m.done = reg.Counter("sdrd_jobs_finished_total", "Finished jobs by terminal state.", "state", "done")
	m.failed = reg.Counter("sdrd_jobs_finished_total", "Finished jobs by terminal state.", "state", "failed")
	m.interrupted = reg.Counter("sdrd_jobs_finished_total", "Finished jobs by terminal state.", "state", "interrupted")
	m.panicked = reg.Counter("sdrd_jobs_panicked_total", "Jobs failed by a panic in their campaign (also counted as failed).")
	m.rejectedFull = reg.Counter("sdrd_jobs_rejected_total", "Submissions rejected by queue backpressure.")
	m.dedupInFlight = reg.Counter("sdrd_dedup_hits_total", "Submissions answered by an existing job.", "kind", "in_flight")
	m.dedupCached = reg.Counter("sdrd_dedup_hits_total", "Submissions answered by an existing job.", "kind", "cached")
	m.recordsTotal = reg.Counter("sdrd_campaign_records_total", "Campaign record lines produced by all jobs (headers included).")
	m.running = reg.Gauge("sdrd_jobs_running", "Jobs currently executing.")
	m.jobDuration = reg.Histogram("sdrd_job_duration_ms", "Run duration of finished jobs in milliseconds.", jobDurationBuckets)
	reg.GaugeFunc("sdrd_workers", "Job worker pool size.", func() float64 { return float64(cfg.Workers) })
	reg.GaugeFunc("sdrd_draining", "1 once the manager has started draining, else 0.", func() float64 {
		m.mu.Lock()
		defer m.mu.Unlock()
		if m.draining {
			return 1
		}
		return 0
	})
	reg.GaugeFunc("sdrd_queue_depth", "Accepted-but-not-started jobs.", func() float64 { return float64(len(m.queue)) })
	reg.GaugeFunc("sdrd_queue_capacity", "Job queue capacity.", func() float64 { return float64(cfg.QueueDepth) })
	reg.GaugeFunc("sdrd_result_cache_jobs", "Finished jobs retained in the result LRU.", func() float64 {
		m.mu.Lock()
		defer m.mu.Unlock()
		return float64(m.lru.Len())
	})
	reg.GaugeFunc("sdrd_memo_hit_rate_mean", "Mean memo_hit_rate over completed cells that recorded it.", func() float64 {
		m.mu.Lock()
		defer m.mu.Unlock()
		if m.memoRateN == 0 {
			return 0
		}
		return m.memoRateSum / float64(m.memoRateN)
	})
	for i := 0; i < cfg.Workers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	return m
}

// Registry returns the metric registry the manager records into.
func (m *Manager) Registry() *obs.Registry { return m.cfg.Registry }

// Submit normalizes and validates the request, then either attaches it to
// an existing job with the same content hash (dedup — the request performs
// no work) or enqueues a new job. It reports the job and whether it was
// newly created. Errors: validation errors, ErrQueueFull, ErrDraining.
func (m *Manager) Submit(req JobRequest) (*Job, bool, error) {
	spec, err := req.Normalize()
	if err != nil {
		return nil, false, err
	}
	hash := specHash(spec)
	m.mu.Lock()
	if m.draining {
		m.mu.Unlock()
		return nil, false, ErrDraining
	}
	if j := m.byHash[hash]; j != nil {
		j.addDedupHit()
		kind := "in_flight"
		if el, ok := m.lruIndex[j.ID]; ok {
			m.lru.MoveToFront(el)
			m.dedupCached.Inc()
			kind = "cached"
		} else {
			m.dedupInFlight.Inc()
		}
		m.mu.Unlock()
		if m.logger != nil {
			m.logger.Info("job dedup hit", "job", j.ID, "hash", shortHash(hash), "kind", kind)
		}
		return j, false, nil
	}
	m.seq++
	job := newJob(fmt.Sprintf("j%06d", m.seq), hash, spec, time.Now(), m.recordsTotal)
	select {
	case m.queue <- job:
	default:
		m.mu.Unlock()
		m.rejectedFull.Inc()
		if m.logger != nil {
			m.logger.Warn("job rejected: queue full", "hash", shortHash(hash), "capacity", m.cfg.QueueDepth)
		}
		return nil, false, ErrQueueFull
	}
	m.jobs[job.ID] = job
	m.byHash[hash] = job
	m.mu.Unlock()
	m.accepted.Inc()
	if m.logger != nil {
		m.logger.Info("job accepted", "job", job.ID, "hash", shortHash(hash), "spec", spec.ID)
	}
	return job, true, nil
}

// Get returns the job with the given id, if it is still retained.
func (m *Manager) Get(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// Cancel aborts the job at its next record boundary. It reports whether the
// job existed and was still cancellable.
func (m *Manager) Cancel(id string) (bool, bool) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return false, false
	}
	return true, j.Cancel(time.Now())
}

// Drain stops accepting submissions, cancels every in-flight campaign (they
// stop at their next record boundary — the same checkpoint semantics the
// CLI's SIGINT handling uses), waits for the workers to exit, and marks
// still-queued jobs interrupted. Safe to call more than once.
func (m *Manager) Drain() {
	m.mu.Lock()
	already := m.draining
	m.draining = true
	m.mu.Unlock()
	m.drainAll()
	m.wg.Wait()
	if already {
		return
	}
	for {
		select {
		case job := <-m.queue:
			job.Cancel(time.Now())
			job.log.finish()
			m.finalize(job, StateInterrupted, nil, 0)
		default:
			return
		}
	}
}

// worker executes queued jobs until drain.
func (m *Manager) worker() {
	defer m.wg.Done()
	for {
		select {
		case job := <-m.queue:
			m.process(job)
		case <-m.drainCtx.Done():
			return
		}
	}
}

// process runs one job through the campaign stream core, its cancellation
// context parented on the drain context so both a per-job DELETE and a
// server drain stop it at a record boundary.
func (m *Manager) process(job *Job) {
	jctx, cancel := context.WithCancel(m.drainCtx)
	defer cancel()
	if !job.claimRun(cancel, time.Now()) {
		// Cancelled while queued: never started, nothing recorded.
		job.log.finish()
		m.finalize(job, StateInterrupted, nil, 0)
		return
	}
	m.running.Add(1)
	start := time.Now()
	res, err := m.run(jctx, job)
	elapsed := time.Since(start)
	job.log.finish()
	switch {
	case errors.Is(err, campaign.ErrInterrupted):
		job.finishAs(StateInterrupted, err.Error(), 0, time.Now())
		m.finalize(job, StateInterrupted, nil, elapsed)
	case err != nil:
		job.finishAs(StateFailed, err.Error(), 0, time.Now())
		m.finalize(job, StateFailed, nil, elapsed)
	default:
		violations := 0
		for _, c := range res.Cells {
			if !c.Skipped && !c.OK {
				violations++
			}
		}
		job.finishAs(StateDone, "", violations, time.Now())
		m.finalize(job, StateDone, res, elapsed)
	}
}

// run executes the job's campaign. A panic anywhere in it, on the worker
// or in a trial of the bench pool (which re-panics here), fails the job
// instead of the daemon: it is logged with its stack, counted, and
// returned as the job's error.
func (m *Manager) run(ctx context.Context, job *Job) (res *campaign.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			m.panicked.Inc()
			err = fmt.Errorf("server: job panicked: %v", r)
			if m.logger != nil {
				m.logger.Error("job panicked", "job", job.ID, "hash", shortHash(job.Hash),
					"panic", fmt.Sprint(r), "stack", string(debug.Stack()))
			}
		}
	}()
	m.mu.Lock()
	hook := m.testJobStart
	m.mu.Unlock()
	if hook != nil {
		hook(job)
	}
	if m.logger != nil {
		m.logger.Info("job started", "job", job.ID, "hash", shortHash(job.Hash))
	}
	return campaign.RunSink(job.Spec, job.log, campaign.Options{
		Parallel: m.cfg.Parallel,
		Context:  ctx,
	})
}

// finalize moves a finished job into the bounded result cache and updates
// the counters. Only done jobs stay in the dedup index: an interrupted or
// failed job's stream is not the full answer, so an identical resubmission
// runs fresh.
func (m *Manager) finalize(job *Job, state JobState, res *campaign.Result, elapsed time.Duration) {
	switch state {
	case StateDone:
		m.done.Inc()
	case StateFailed:
		m.failed.Inc()
	case StateInterrupted:
		m.interrupted.Inc()
	}
	if elapsed > 0 {
		m.running.Add(-1)
		m.jobDuration.Observe(float64(elapsed.Nanoseconds()) / 1e6)
	}
	if m.logger != nil {
		m.logger.Info("job finished",
			"job", job.ID, "hash", shortHash(job.Hash), "state", string(state),
			"duration_ms", float64(elapsed.Nanoseconds())/1e6, "records", job.log.len())
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if state == StateFailed || state == StateInterrupted {
		delete(m.byHash, job.Hash)
	}
	if res != nil {
		for _, c := range res.Cells {
			if agg, ok := c.Metrics[campaign.MetricMemoHitRate]; ok {
				m.memoRateSum += agg.Mean
				m.memoRateN++
			}
		}
	}
	m.lruIndex[job.ID] = m.lru.PushFront(job)
	for m.lru.Len() > m.cfg.ResultCache {
		el := m.lru.Back()
		old := m.lru.Remove(el).(*Job)
		delete(m.lruIndex, old.ID)
		delete(m.jobs, old.ID)
		if cur := m.byHash[old.Hash]; cur == old {
			delete(m.byHash, old.Hash)
		}
	}
}

// shortHash abbreviates a content hash for log lines, matching the 12-char
// prefix deriveID embeds in job spec IDs.
func shortHash(hash string) string {
	if len(hash) > 12 {
		return hash[:12]
	}
	return hash
}
