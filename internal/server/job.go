package server

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"sdr/internal/campaign"
	"sdr/internal/obs"
	"sdr/internal/scenario"
)

// A submitted job is a model plus an experiment frame: both request forms —
// a sweep grid (a single run is a one-cell sweep) or a full campaign —
// normalize into one campaign.Spec, so the service has exactly one execution
// path (the campaign stream core) and exactly one output format (the
// campaign JSONL stream). Seeds and churn schedules are part of the request,
// which is what makes the content hash of the normalized spec a sound dedup
// key: equal hashes mean equal streams, byte for byte.

// SweepRequest is the job-request form of a scenario.Sweep: a cross-product
// grid with a fixed number of seeded trials per cell.
type SweepRequest struct {
	Algorithms []string `json:"algorithms"`
	Topologies []string `json:"topologies"`
	Daemons    []string `json:"daemons"`
	Faults     []string `json:"faults,omitempty"`
	Churns     []string `json:"churns,omitempty"`
	Sizes      []int    `json:"sizes"`
	Trials     int      `json:"trials,omitempty"`
	Seed       int64    `json:"seed"`
	SeedStride int64    `json:"seed_stride,omitempty"`
	MaxSteps   int      `json:"max_steps,omitempty"`
	// Shards is the engine shard count shared by every cell; omitted or 1
	// means the sequential engine.
	Shards int             `json:"shards,omitempty"`
	Params scenario.Params `json:"params,omitzero"`
}

// JobRequest is the body of POST /v1/jobs: exactly one of Sweep or Campaign.
type JobRequest struct {
	Sweep    *SweepRequest  `json:"sweep,omitempty"`
	Campaign *campaign.Spec `json:"campaign,omitempty"`
}

// Normalize maps the request onto the one campaign.Spec the job executes
// and validates it against the scenario registries. Sweep requests get a
// deterministic content-derived ID, so resubmitting the same request always
// lands on the same job spec (and therefore the same dedup hash).
func (r JobRequest) Normalize() (campaign.Spec, error) {
	var cs campaign.Spec
	switch {
	case (r.Sweep == nil) == (r.Campaign == nil):
		return campaign.Spec{}, errors.New("exactly one of sweep or campaign must be set")
	case r.Campaign != nil:
		cs = *r.Campaign
	default:
		s := *r.Sweep
		trials := s.Trials
		if trials <= 0 {
			trials = 1
		}
		cs = campaign.Spec{
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
			MinTrials:  trials,
		}
		cs.ID = deriveID(cs)
	}
	if err := cs.Validate(); err != nil {
		return campaign.Spec{}, err
	}
	return cs, nil
}

// deriveID names a sweep job from its content: the hash of the spec
// with a blank ID, so the name never feeds back into itself.
func deriveID(cs campaign.Spec) string {
	cs.ID = ""
	return "job-" + specHash(cs)[:12]
}

// specHash is the dedup cache key: the SHA-256 of the spec's canonical JSON
// encoding (the same encoding the stream header pins, so equal hashes mean
// byte-identical streams).
func specHash(cs campaign.Spec) string {
	data, err := json.Marshal(cs)
	if err != nil {
		// campaign.Spec is a plain data struct; marshalling cannot fail.
		panic(fmt.Sprintf("server: hash spec: %v", err))
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// JobState is the lifecycle state of a job.
type JobState string

const (
	// StateQueued: accepted, waiting for a worker.
	StateQueued JobState = "queued"
	// StateRunning: a worker is executing the campaign.
	StateRunning JobState = "running"
	// StateDone: completed; the record stream is final.
	StateDone JobState = "done"
	// StateFailed: aborted on an execution error.
	StateFailed JobState = "failed"
	// StateInterrupted: stopped at a record boundary by a cancel or a drain;
	// the recorded stream is a clean prefix of the full stream.
	StateInterrupted JobState = "interrupted"
)

// Job is one deduplicated unit of work: a normalized campaign spec plus its
// record stream.
type Job struct {
	// ID and Hash are immutable after construction.
	ID   string
	Hash string
	Spec campaign.Spec

	log *recordLog

	mu         sync.Mutex
	state      JobState
	err        string
	violations int
	dedupHits  int
	cancel     func()
	submitted  time.Time
	started    time.Time
	finished   time.Time
}

// JobStatus is the JSON rendering of a job's state (GET /v1/jobs/{id}).
type JobStatus struct {
	ID    string   `json:"id"`
	State JobState `json:"state"`
	// Records counts the stream lines written so far (header included), the
	// offset to pass as ?from= when resuming the record stream.
	Records int `json:"records"`
	// DedupHits counts submissions answered by this job beyond the first.
	DedupHits int `json:"dedup_hits"`
	// Violations counts cells that failed their correctness check (done
	// jobs only).
	Violations  int    `json:"violations,omitempty"`
	Error       string `json:"error,omitempty"`
	SubmittedAt string `json:"submitted_at"`
	StartedAt   string `json:"started_at,omitempty"`
	FinishedAt  string `json:"finished_at,omitempty"`
}

func newJob(id, hash string, spec campaign.Spec, now time.Time, records *obs.Counter) *Job {
	return &Job{ID: id, Hash: hash, Spec: spec, log: newRecordLog(records), state: StateQueued, submitted: now}
}

// Status snapshots the job for the API.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:          j.ID,
		State:       j.state,
		Records:     j.log.len(),
		DedupHits:   j.dedupHits,
		Violations:  j.violations,
		Error:       j.err,
		SubmittedAt: j.submitted.UTC().Format(time.RFC3339),
	}
	if !j.started.IsZero() {
		st.StartedAt = j.started.UTC().Format(time.RFC3339)
	}
	if !j.finished.IsZero() {
		st.FinishedAt = j.finished.UTC().Format(time.RFC3339)
	}
	return st
}

// State returns the job's current lifecycle state.
func (j *Job) State() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Cancel requests an abort at the next record boundary. It reports whether
// the job was still cancellable (queued or running).
func (j *Job) Cancel(now time.Time) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	switch j.state {
	case StateQueued:
		// Mark interrupted in place: the worker skips jobs it cannot claim.
		j.state = StateInterrupted
		j.err = "cancelled before start"
		j.finished = now
		return true
	case StateRunning:
		if j.cancel != nil {
			j.cancel()
		}
		return true
	default:
		return false
	}
}

// claimRun transitions queued → running; false when the job was cancelled
// while it sat in the queue (the worker then skips it).
func (j *Job) claimRun(cancel func(), now time.Time) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return false
	}
	j.state = StateRunning
	j.cancel = cancel
	j.started = now
	return true
}

// finishAs records the job's terminal state.
func (j *Job) finishAs(state JobState, errMsg string, violations int, now time.Time) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.state = state
	j.err = errMsg
	j.violations = violations
	j.finished = now
	j.cancel = nil
}

// addDedupHit counts one submission answered by this job.
func (j *Job) addDedupHit() {
	j.mu.Lock()
	j.dedupHits++
	j.mu.Unlock()
}
