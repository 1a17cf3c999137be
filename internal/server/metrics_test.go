package server

import (
	"bytes"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func scrapeMetrics(t *testing.T, url string) (string, string) {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("read metrics: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	return string(data), resp.Header.Get("Content-Type")
}

// metricValue finds the value of the exposition line starting with the given
// series name (exact match up to the space), or fails.
func metricValue(t *testing.T, out, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				t.Fatalf("series %s has unparseable value %q", series, rest)
			}
			return v
		}
	}
	t.Fatalf("series %s not found in exposition:\n%s", series, out)
	return 0
}

// TestMetricsEndpoint is the /metrics e2e test: run a job through the full
// HTTP path, trigger a cached dedup hit, and require the exposition to be
// well-formed Prometheus text carrying the job, queue, dedup, record and
// request-latency series, and the pool-size and drain gauges.
func TestMetricsEndpoint(t *testing.T) {
	m, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4, Parallel: 1})

	resp, sr, _ := postJob(t, ts, sweepBody(t, 42))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	job, _ := m.Get(sr.ID)
	awaitState(t, job, StateDone)
	if resp, sr2, _ := postJob(t, ts, sweepBody(t, 42)); resp.StatusCode != http.StatusOK || !sr2.Deduped {
		t.Fatalf("resubmit: status %d deduped %v, want cached dedup hit", resp.StatusCode, sr2.Deduped)
	}

	out, ctype := scrapeMetrics(t, ts.URL)
	if !strings.HasPrefix(ctype, "text/plain") {
		t.Errorf("content type = %q, want text/plain exposition", ctype)
	}

	// Structural validity: every non-comment, non-blank line is
	// `series value` with a parseable float value, and every series has a
	// preceding # TYPE header for its family.
	typed := map[string]bool{}
	for _, line := range strings.Split(out, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
				typed[strings.Fields(rest)[0]] = true
			}
			continue
		}
		// Split at the last space: label values ("GET /v1/jobs") may
		// themselves contain spaces.
		cut := strings.LastIndexByte(line, ' ')
		if cut < 0 {
			t.Fatalf("malformed exposition line %q", line)
		}
		name, value := line[:cut], line[cut+1:]
		if _, err := strconv.ParseFloat(value, 64); err != nil {
			t.Fatalf("line %q: unparseable value: %v", line, err)
		}
		family := name
		if i := strings.IndexByte(family, '{'); i >= 0 {
			family = family[:i]
		}
		trimmed := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(family, "_bucket"), "_sum"), "_count")
		if !typed[family] && !typed[trimmed] {
			t.Fatalf("series %q has no # TYPE header", name)
		}
	}

	if got := metricValue(t, out, "sdrd_jobs_accepted_total"); got != 1 {
		t.Errorf("jobs_accepted = %v, want 1", got)
	}
	if got := metricValue(t, out, `sdrd_jobs_finished_total{state="done"}`); got != 1 {
		t.Errorf("jobs_finished{done} = %v, want 1", got)
	}
	if got := metricValue(t, out, `sdrd_dedup_hits_total{kind="cached"}`); got != 1 {
		t.Errorf("dedup cached = %v, want 1", got)
	}
	if got := metricValue(t, out, "sdrd_queue_depth"); got != 0 {
		t.Errorf("queue_depth = %v, want 0", got)
	}
	if got := metricValue(t, out, "sdrd_queue_capacity"); got != 4 {
		t.Errorf("queue_capacity = %v, want 4", got)
	}
	if got := metricValue(t, out, "sdrd_job_duration_ms_count"); got != 1 {
		t.Errorf("job_duration count = %v, want 1", got)
	}
	if got := metricValue(t, out, "sdrd_campaign_records_total"); got < 2 {
		t.Errorf("records_total = %v, want >= 2 (header + at least one record)", got)
	}
	if got := metricValue(t, out, `sdrd_http_request_duration_seconds_count{route="POST /v1/jobs"}`); got != 2 {
		t.Errorf("request histogram count for POST /v1/jobs = %v, want 2", got)
	}
	if got := metricValue(t, out, `sdrd_http_requests_total{route="POST /v1/jobs",code="202"}`); got != 1 {
		t.Errorf("requests{202} = %v, want 1", got)
	}
	if got := metricValue(t, out, `sdrd_http_requests_total{route="POST /v1/jobs",code="200"}`); got != 1 {
		t.Errorf("requests{200} = %v, want 1", got)
	}

	if got := metricValue(t, out, "sdrd_memo_hit_rate_mean"); got <= 0 {
		t.Errorf("memo_hit_rate_mean = %v, want > 0 (memoization is on by default)", got)
	}
	if got := metricValue(t, out, "sdrd_workers"); got != 1 {
		t.Errorf("workers = %v, want 1", got)
	}
	if got := metricValue(t, out, "sdrd_draining"); got != 0 {
		t.Errorf("draining = %v, want 0", got)
	}
}

// syncBuffer makes a bytes.Buffer safe for the concurrent writes of worker
// and request goroutines.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func TestStructuredLifecycleLogs(t *testing.T) {
	var buf syncBuffer
	logger := slog.New(slog.NewTextHandler(&buf, nil))
	m, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4, Parallel: 1, Logger: logger})

	_, sr, _ := postJob(t, ts, sweepBody(t, 99))
	job, _ := m.Get(sr.ID)
	awaitState(t, job, StateDone)
	postJob(t, ts, sweepBody(t, 99)) // dedup hit
	m.Drain()

	out := buf.String()
	for _, want := range []string{
		"job accepted", "job started", "job finished", "job dedup hit",
		"job=" + job.ID, "hash=" + shortHash(job.Hash),
		"msg=request", "path=/v1/jobs",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("logs missing %q:\n%s", want, out)
		}
	}
}

// TestPanickingJobFailsAndServerKeepsServing runs a job whose worker panics
// (through the start hook) on a one-worker manager: the job must end
// failed with the panic in its error, the panic must be counted, and the
// same worker must then run the next submission to done.
func TestPanickingJobFailsAndServerKeepsServing(t *testing.T) {
	m, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4, Parallel: 2})
	m.mu.Lock()
	m.testJobStart = func(*Job) { panic("injected trial failure") }
	m.mu.Unlock()

	_, sr, _ := postJob(t, ts, sweepBody(t, 7))
	job, _ := m.Get(sr.ID)
	awaitState(t, job, StateFailed)
	if st := job.Status(); !strings.Contains(st.Error, "injected trial failure") {
		t.Fatalf("failed job error = %q, want the panic value", st.Error)
	}

	m.mu.Lock()
	m.testJobStart = nil
	m.mu.Unlock()
	resp, sr2, _ := postJob(t, ts, sweepBody(t, 7))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("resubmit after panic: status %d, want a fresh job", resp.StatusCode)
	}
	next, _ := m.Get(sr2.ID)
	awaitState(t, next, StateDone)

	out, _ := scrapeMetrics(t, ts.URL)
	if v := metricValue(t, out, "sdrd_jobs_panicked_total"); v != 1 {
		t.Errorf("sdrd_jobs_panicked_total = %v, want 1", v)
	}
	if v := metricValue(t, out, `sdrd_jobs_finished_total{state="failed"}`); v != 1 {
		t.Errorf(`sdrd_jobs_finished_total{state="failed"} = %v, want 1`, v)
	}
	if v := metricValue(t, out, "sdrd_jobs_running"); v != 0 {
		t.Errorf("sdrd_jobs_running = %v after both jobs finished, want 0", v)
	}
}
