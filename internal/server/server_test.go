package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sdr/internal/campaign"
	"sdr/internal/scenario"
)

// newTestServer starts a manager plus its HTTP front end and tears both down
// with the test.
func newTestServer(t *testing.T, cfg Config) (*Manager, *httptest.Server) {
	t.Helper()
	m := NewManager(cfg)
	ts := httptest.NewServer(New(m))
	t.Cleanup(func() {
		m.Drain() // finishes every record log, releasing any followers
		ts.Close()
	})
	return m, ts
}

// blockWorkers installs the test hook that parks every claimed job until
// release is closed, reporting each claim on started.
func blockWorkers(m *Manager, started chan<- *Job, release <-chan struct{}) {
	m.mu.Lock()
	m.testJobStart = func(j *Job) {
		started <- j
		<-release
	}
	m.mu.Unlock()
}

func postJob(t *testing.T, ts *httptest.Server, body []byte) (*http.Response, SubmitResponse, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/jobs: %v", err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("read response: %v", err)
	}
	var sr SubmitResponse
	if resp.StatusCode == http.StatusAccepted || resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(data, &sr); err != nil {
			t.Fatalf("parse submit response %s: %v", data, err)
		}
	}
	return resp, sr, data
}

// sweepBody is a one-cell sweep: one seeded trial of one scenario point.
func sweepBody(t *testing.T, seed int64) []byte {
	t.Helper()
	body, err := json.Marshal(JobRequest{Sweep: &SweepRequest{
		Algorithms: []string{"unison"}, Topologies: []string{"ring"}, Sizes: []int{6},
		Daemons: []string{"distributed-random"}, Faults: []string{"random-all"}, Seed: seed,
	}})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func awaitState(t *testing.T, j *Job, want JobState) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for j.State() != want {
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %q, want %q", j.ID, j.State(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestRegistryEndpointMatchesDump(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, err := http.Get(ts.URL + "/v1/registry")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := scenario.WriteRegistryJSON(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Errorf("/v1/registry body diverged from scenario.WriteRegistryJSON:\ngot:\n%s\nwant:\n%s", got, want.Bytes())
	}
}

func TestVersionEndpointIsTheBaselineFingerprint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, err := http.Get(ts.URL + "/v1/version")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got campaign.Meta
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if want := campaign.Fingerprint(); got != want {
		t.Errorf("/v1/version = %+v, want the campaign fingerprint %+v", got, want)
	}
}

// TestRecordStreamByteIdentity is the acceptance check of the tentpole: for
// a fixed spec and seed, the served record stream must be byte-identical to
// the CAMPAIGN_<id>.jsonl file an offline sdrbench -campaign run writes.
func TestRecordStreamByteIdentity(t *testing.T) {
	spec := campaign.Spec{
		ID:         "svc-identity",
		Algorithms: []string{"unison"},
		Topologies: []string{"ring", "star"},
		Daemons:    []string{"distributed-random"},
		Sizes:      []int{6},
		Seed:       11,
		MinTrials:  3,
	}

	offline := filepath.Join(t.TempDir(), "CAMPAIGN_svc-identity.jsonl")
	if _, err := campaign.Run(spec, offline, campaign.Options{Parallel: 3}); err != nil {
		t.Fatalf("offline campaign run: %v", err)
	}
	want, err := os.ReadFile(offline)
	if err != nil {
		t.Fatal(err)
	}

	m, ts := newTestServer(t, Config{Workers: 1, Parallel: 2})
	body, err := json.Marshal(JobRequest{Campaign: &spec})
	if err != nil {
		t.Fatal(err)
	}
	resp, sr, raw := postJob(t, ts, body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %s: %s", resp.Status, raw)
	}
	job, ok := m.Get(sr.ID)
	if !ok {
		t.Fatalf("job %s not retained", sr.ID)
	}
	awaitState(t, job, StateDone)

	recResp, err := http.Get(ts.URL + "/v1/jobs/" + sr.ID + "/records")
	if err != nil {
		t.Fatal(err)
	}
	defer recResp.Body.Close()
	got, err := io.ReadAll(recResp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("served stream diverged from the offline campaign file:\ngot:\n%s\nwant:\n%s", got, want)
	}
	// The status record count is the ?from= offset of the stream's end.
	if lines, records := bytes.Count(got, []byte("\n")), job.Status().Records; lines != records {
		t.Errorf("status reports %d records, the stream served %d lines", records, lines)
	}

	// Resuming from a line offset serves exactly the remaining lines.
	wantLines := bytes.SplitAfter(want, []byte("\n"))
	fromResp, err := http.Get(ts.URL + "/v1/jobs/" + sr.ID + "/records?from=2")
	if err != nil {
		t.Fatal(err)
	}
	defer fromResp.Body.Close()
	gotFrom, err := io.ReadAll(fromResp.Body)
	if err != nil {
		t.Fatal(err)
	}
	wantFrom := bytes.Join(wantLines[2:], nil)
	if !bytes.Equal(gotFrom, wantFrom) {
		t.Errorf("?from=2 stream diverged:\ngot:\n%s\nwant:\n%s", gotFrom, wantFrom)
	}
}

func TestDedupConcurrentAndCached(t *testing.T) {
	m, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	started := make(chan *Job, 4)
	release := make(chan struct{})
	blockWorkers(m, started, release)

	body := sweepBody(t, 1)
	resp1, sr1, raw := postJob(t, ts, body)
	if resp1.StatusCode != http.StatusAccepted || sr1.Deduped {
		t.Fatalf("first submit: %s deduped=%v: %s", resp1.Status, sr1.Deduped, raw)
	}
	job := <-started // the worker claimed it and is now parked

	// An identical submission while the job is in flight attaches to it.
	resp2, sr2, raw := postJob(t, ts, body)
	if resp2.StatusCode != http.StatusOK || !sr2.Deduped || sr2.ID != sr1.ID {
		t.Fatalf("in-flight duplicate: %s deduped=%v id=%s (want %s): %s",
			resp2.Status, sr2.Deduped, sr2.ID, sr1.ID, raw)
	}
	if inFlight, accepted := m.dedupInFlight.Value(), m.accepted.Value(); inFlight != 1 || accepted != 1 {
		t.Errorf("after in-flight duplicate: dedup in-flight %d, accepted %d; want 1, 1", inFlight, accepted)
	}

	close(release)
	awaitState(t, job, StateDone)

	// A duplicate of the completed job is served from the result cache.
	resp3, sr3, raw := postJob(t, ts, body)
	if resp3.StatusCode != http.StatusOK || !sr3.Deduped || sr3.ID != sr1.ID || sr3.State != StateDone {
		t.Fatalf("cached duplicate: %s deduped=%v id=%s state=%s: %s",
			resp3.Status, sr3.Deduped, sr3.ID, sr3.State, raw)
	}
	if inFlight, cached := m.dedupInFlight.Value(), m.dedupCached.Value(); inFlight != 1 || cached != 1 {
		t.Errorf("dedup hits in-flight %d, cached %d; want 1, 1", inFlight, cached)
	}
	if done, accepted := m.done.Value(), m.accepted.Value(); done != 1 || accepted != 1 {
		t.Errorf("jobs done %d, accepted %d; want 1, 1", done, accepted)
	}
	if st, _ := m.Get(sr1.ID); st.Status().DedupHits != 2 {
		t.Errorf("job dedup hit counter = %d, want 2", st.Status().DedupHits)
	}
}

func TestBackpressure429WhenQueueFull(t *testing.T) {
	m, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	started := make(chan *Job, 4)
	release := make(chan struct{})
	blockWorkers(m, started, release)

	respA, _, rawA := postJob(t, ts, sweepBody(t, 1))
	if respA.StatusCode != http.StatusAccepted {
		t.Fatalf("submit A: %s: %s", respA.Status, rawA)
	}
	jobA := <-started // A occupies the worker, the queue is empty again

	respB, _, rawB := postJob(t, ts, sweepBody(t, 2))
	if respB.StatusCode != http.StatusAccepted {
		t.Fatalf("submit B: %s: %s", respB.Status, rawB)
	}

	respC, _, rawC := postJob(t, ts, sweepBody(t, 3))
	if respC.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("submit C with a full queue: %s (want 429): %s", respC.Status, rawC)
	}
	if respC.Header.Get("Retry-After") == "" {
		t.Error("429 response is missing Retry-After")
	}
	if !strings.Contains(string(rawC), "queue full") {
		t.Errorf("429 body should name the full queue: %s", rawC)
	}

	close(release)
	awaitState(t, jobA, StateDone)
}

// TestDrainStopsAtRecordBoundary submits a long campaign, waits until its
// stream is flowing, then drains: the job must end interrupted with a clean
// JSONL prefix, and further submissions must be refused with 503.
func TestDrainStopsAtRecordBoundary(t *testing.T) {
	spec := campaign.Spec{
		ID:         "svc-drain",
		Algorithms: []string{"unison"},
		Topologies: []string{"ring"},
		Daemons:    []string{"distributed-random"},
		Sizes:      []int{8},
		Seed:       5,
		MinTrials:  50_000,
	}
	m, ts := newTestServer(t, Config{Workers: 1, Parallel: 2})
	body, err := json.Marshal(JobRequest{Campaign: &spec})
	if err != nil {
		t.Fatal(err)
	}
	resp, sr, raw := postJob(t, ts, body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %s: %s", resp.Status, raw)
	}
	job, _ := m.Get(sr.ID)
	deadline := time.Now().Add(30 * time.Second)
	for job.log.len() < 5 {
		if time.Now().After(deadline) {
			t.Fatal("no records flowed before the deadline")
		}
		time.Sleep(time.Millisecond)
	}

	m.Drain()

	if st := job.State(); st != StateInterrupted {
		t.Fatalf("job state after drain = %q, want %q", st, StateInterrupted)
	}
	recResp, err := http.Get(ts.URL + "/v1/jobs/" + sr.ID + "/records")
	if err != nil {
		t.Fatal(err)
	}
	defer recResp.Body.Close()
	stream, err := io.ReadAll(recResp.Body)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSuffix(stream, []byte("\n")), []byte("\n"))
	if len(lines) < 5 || len(lines) >= 50_001 {
		t.Fatalf("drained stream has %d lines, want a proper prefix ≥ 5", len(lines))
	}
	for i, ln := range lines {
		if !json.Valid(ln) {
			t.Fatalf("line %d of the drained stream is not valid JSON: %s", i, ln)
		}
	}
	var header struct {
		Type string `json:"type"`
	}
	if err := json.Unmarshal(lines[0], &header); err != nil || header.Type != "campaign" {
		t.Errorf("first line should be the campaign header, got %s", lines[0])
	}

	respPost, _, rawPost := postJob(t, ts, sweepBody(t, 9))
	if respPost.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("submit while draining: %s (want 503): %s", respPost.Status, rawPost)
	}
	out, _ := scrapeMetrics(t, ts.URL)
	if got := metricValue(t, out, "sdrd_draining"); got != 1 {
		t.Errorf("sdrd_draining after drain = %v, want 1", got)
	}
	if got := metricValue(t, out, `sdrd_jobs_finished_total{state="interrupted"}`); got != 1 {
		t.Errorf("interrupted jobs after drain = %v, want 1", got)
	}
}

func TestCancelAndNotFound(t *testing.T) {
	m, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	started := make(chan *Job, 4)
	release := make(chan struct{})
	blockWorkers(m, started, release)

	for _, method := range []string{http.MethodGet, http.MethodDelete} {
		req, _ := http.NewRequest(method, ts.URL+"/v1/jobs/nope", nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s unknown job: %s (want 404)", method, resp.Status)
		}
	}

	respA, srA, _ := postJob(t, ts, sweepBody(t, 1))
	if respA.StatusCode != http.StatusAccepted {
		t.Fatalf("submit A: %s", respA.Status)
	}
	jobA := <-started
	respB, srB, _ := postJob(t, ts, sweepBody(t, 2))
	if respB.StatusCode != http.StatusAccepted {
		t.Fatalf("submit B: %s", respB.Status)
	}

	// B is still queued; cancelling it must settle it without running.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+srB.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel queued B: %s", resp.Status)
	}
	jobB, _ := m.Get(srB.ID)
	if jobB.State() != StateInterrupted {
		t.Errorf("cancelled queued job state = %q, want interrupted", jobB.State())
	}

	close(release)
	awaitState(t, jobA, StateDone)
	awaitState(t, jobB, StateInterrupted)

	// Cancelling a finished job is a conflict.
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+srA.ID, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("cancel finished job: %s (want 409)", resp.Status)
	}
}

func TestSubmitValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	cases := []struct {
		name string
		body string
		msg  string // a part of the 400 body, if non-empty
	}{
		{"invalid json", "{", ""},
		{"no form populated", "{}", ""},
		{"both forms populated", `{"sweep":{"algorithms":["unison"],"topologies":["ring"],"sizes":[6],"daemons":["synchronous"],"seed":1},"campaign":{"id":"x","algorithms":["unison"],"topologies":["ring"],"daemons":["synchronous"],"sizes":[6],"seed":1}}`, ""},
		{"unknown algorithm", `{"sweep":{"algorithms":["no-such-algo"],"topologies":["ring"],"sizes":[6],"daemons":["synchronous"],"seed":1}}`, ""},
		{"unknown field", `{"sweep":{"algorithms":["unison"],"topologies":["ring"],"sizes":[6],"daemons":["synchronous"],"seed":1},"bogus":true}`, ""},
		{"spec form", `{"spec":{"algorithm":"unison","topology":"ring","n":6,"daemon":"synchronous","seed":1}}`, ""},
		{"kind discriminator", `{"kind":"sweep","sweep":{"algorithms":["unison"],"topologies":["ring"],"sizes":[6],"daemons":["synchronous"],"seed":1}}`, ""},
		// Params keys are the Go field names (EdgeProb), not snake_case.
		{"snake_case params key", `{"sweep":{"algorithms":["unison"],"topologies":["random"],"sizes":[6],"daemons":["synchronous"],"seed":1,"params":{"edge_prob":5}}}`, `unknown field \"edge_prob\"`},
	}
	for _, tc := range cases {
		resp, _, raw := postJob(t, ts, []byte(tc.body))
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: %s (want 400): %s", tc.name, resp.Status, raw)
		}
		if !strings.Contains(string(raw), tc.msg) {
			t.Errorf("%s: 400 body %s does not name %s", tc.name, raw, tc.msg)
		}
	}
}

// TestResultCacheEviction pins the memory bound: once the LRU overflows, the
// oldest finished job disappears entirely — status, stream and dedup entry.
func TestResultCacheEviction(t *testing.T) {
	m, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4, ResultCache: 1})

	resp1, sr1, _ := postJob(t, ts, sweepBody(t, 1))
	if resp1.StatusCode != http.StatusAccepted {
		t.Fatalf("submit 1: %s", resp1.Status)
	}
	job1, _ := m.Get(sr1.ID)
	awaitState(t, job1, StateDone)

	resp2, sr2, _ := postJob(t, ts, sweepBody(t, 2))
	if resp2.StatusCode != http.StatusAccepted {
		t.Fatalf("submit 2: %s", resp2.Status)
	}
	job2, _ := m.Get(sr2.ID)
	awaitState(t, job2, StateDone)

	if _, ok := m.Get(sr1.ID); ok {
		t.Error("job 1 should have been evicted from the result cache")
	}
	statusResp, err := http.Get(ts.URL + "/v1/jobs/" + sr1.ID)
	if err != nil {
		t.Fatal(err)
	}
	statusResp.Body.Close()
	if statusResp.StatusCode != http.StatusNotFound {
		t.Errorf("evicted job status: %s (want 404)", statusResp.Status)
	}

	// An evicted job no longer dedups: resubmitting runs it fresh.
	resp3, sr3, _ := postJob(t, ts, sweepBody(t, 1))
	if resp3.StatusCode != http.StatusAccepted || sr3.Deduped {
		t.Errorf("resubmit of evicted spec: %s deduped=%v (want a fresh 202)", resp3.Status, sr3.Deduped)
	}
	out, _ := scrapeMetrics(t, ts.URL)
	if got := metricValue(t, out, "sdrd_result_cache_jobs"); got != 1 {
		t.Errorf("cached jobs = %v, want 1", got)
	}
}

// sweepRequest is a one-cell synchronous unison sweep on a 6-ring.
func sweepRequest(seed int64) JobRequest {
	return JobRequest{Sweep: &SweepRequest{
		Algorithms: []string{"unison"}, Topologies: []string{"ring"}, Sizes: []int{6},
		Daemons: []string{"synchronous"}, Seed: seed,
	}}
}

// TestDeriveIDIsStable pins the content-derived job naming: equal requests
// map to equal IDs and hashes, requests that differ in the seed do not.
func TestDeriveIDIsStable(t *testing.T) {
	req := sweepRequest(3)
	a, err := req.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	b, err := req.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if a.ID != b.ID || specHash(a) != specHash(b) {
		t.Errorf("normalization is not stable: %q/%q", a.ID, b.ID)
	}
	c, err := sweepRequest(4).Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if specHash(a) == specHash(c) {
		t.Error("different seeds must hash differently")
	}
	if !strings.HasPrefix(a.ID, "job-") {
		t.Errorf("derived id %q should carry the job- prefix", a.ID)
	}
}

// TestRecordsFollowLiveStream verifies a follower connected before the job
// finishes still receives the complete stream.
func TestRecordsFollowLiveStream(t *testing.T) {
	m, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	started := make(chan *Job, 1)
	release := make(chan struct{})
	blockWorkers(m, started, release)

	resp, sr, _ := postJob(t, ts, sweepBody(t, 1))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %s", resp.Status)
	}
	job := <-started

	type streamResult struct {
		data []byte
		err  error
	}
	results := make(chan streamResult, 1)
	go func() {
		r, err := http.Get(ts.URL + "/v1/jobs/" + sr.ID + "/records")
		if err != nil {
			results <- streamResult{nil, err}
			return
		}
		defer r.Body.Close()
		data, err := io.ReadAll(r.Body)
		results <- streamResult{data, err}
	}()

	time.Sleep(10 * time.Millisecond) // let the follower attach before any output
	close(release)
	awaitState(t, job, StateDone)

	res := <-results
	if res.err != nil {
		t.Fatalf("follow stream: %v", res.err)
	}
	lines := bytes.Split(bytes.TrimSuffix(res.data, []byte("\n")), []byte("\n"))
	if want := job.log.len(); len(lines) != want {
		t.Errorf("follower saw %d lines, log holds %d", len(lines), want)
	}
	for i, ln := range lines {
		if !json.Valid(ln) {
			t.Fatalf("followed line %d is not valid JSON: %s", i, ln)
		}
	}
}

// TestOutOfDomainRequestsFailCleanly posts bodies whose sizes or params lie
// outside the graph and algorithm constructors' domain. Each must be refused
// with a 400 at submit or end as a failed job carrying the constructor's
// message, and the server must keep answering afterwards.
func TestOutOfDomainRequestsFailCleanly(t *testing.T) {
	m, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 8, Parallel: 1})
	sweep := func(alg, topo string, size int, params string) string {
		return fmt.Sprintf(`{"sweep":{"algorithms":[%q],"topologies":[%q],"daemons":["synchronous"],"sizes":[%d],"seed":1%s}}`,
			alg, topo, size, params)
	}
	cases := []struct {
		name, body, failure string // failure "" means a 400 at submit
	}{
		{"spec form of a 2-ring", `{"spec":{"algorithm":"unison","topology":"ring","n":2,"daemon":"synchronous","seed":1}}`, ""},
		{"2-ring", sweep("unison", "ring", 2, ""), "ring requires n >= 3"},
		{"zero size sweep", sweep("unison", "path", 0, ""), ""},
		{"zero size campaign", `{"campaign":{"id":"c0","algorithms":["unison"],"topologies":["ring"],"daemons":["synchronous"],"sizes":[0],"seed":1}}`, ""},
		{"unison period 1", sweep("unison", "ring", 6, `,"params":{"K":1}`), "period K must be at least 2"},
		{"bfs root past n", sweep("bfstree", "ring", 6, `,"params":{"Root":100}`), "root 100 out of range"},
		{"negative bfs root", sweep("bfstree", "ring", 6, `,"params":{"Root":-1}`), "root -1 out of range"},
		{"edge probability 5", sweep("unison", "random", 6, `,"params":{"EdgeProb":5}`), "edge probability must be in [0,1]"},
	}
	for _, tc := range cases {
		resp, sr, raw := postJob(t, ts, []byte(tc.body))
		if tc.failure == "" {
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("%s: %s (want 400): %s", tc.name, resp.Status, raw)
			}
			continue
		}
		if resp.StatusCode != http.StatusAccepted {
			t.Errorf("%s: %s (want 202): %s", tc.name, resp.Status, raw)
			continue
		}
		job, _ := m.Get(sr.ID)
		awaitState(t, job, StateFailed)
		if msg := job.Status().Error; !strings.Contains(msg, tc.failure) {
			t.Errorf("%s: job error %q, want it to contain %q", tc.name, msg, tc.failure)
		}
	}
	resp, _, raw := postJob(t, ts, sweepBody(t, 1))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("valid submit after the out-of-domain bodies: %s: %s", resp.Status, raw)
	}
}
