package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("jobs_total", "Jobs.")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if again := r.Counter("jobs_total", "Jobs."); again != c {
		t.Fatal("re-registering the same counter did not return the existing one")
	}
	g := r.Gauge("queue_depth", "Depth.")
	g.Set(3)
	g.Add(-1.5)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge = %v, want 1.5", got)
	}
}

func TestCounterLabelsAreDistinctSeries(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("http_requests_total", "Requests.", "route", "/a")
	b := r.Counter("http_requests_total", "Requests.", "route", "/b")
	if a == b {
		t.Fatal("different label sets returned the same series")
	}
	a.Add(2)
	b.Inc()
	out := render(t, r)
	for _, want := range []string{
		`http_requests_total{route="/a"} 2`,
		`http_requests_total{route="/b"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "X.")
	defer func() {
		if recover() == nil {
			t.Fatal("registering x_total as a gauge did not panic")
		}
	}()
	r.Gauge("x_total", "X.")
}

func TestHistogramObserve(t *testing.T) {
	h := newHistogram([]float64{1, 2, 4, 8})
	for _, v := range []float64{0.5, 1, 1.5, 3, 3, 5, 7, 9, 100} {
		h.Observe(v)
	}
	if got := h.Count(); got != 9 {
		t.Fatalf("count = %d, want 9", got)
	}
	if got := h.Sum(); got != 130 {
		t.Fatalf("sum = %v, want 130", got)
	}
	// 0.5 and 1 land in le=1 (le is inclusive), 1.5 in le=2, the two 3s in
	// le=4, 5 and 7 in le=8, 9 and 100 overflow to +Inf.
	wantBuckets := []uint64{2, 1, 2, 2, 2}
	for i, want := range wantBuckets {
		if got := h.buckets[i].Load(); got != want {
			t.Errorf("bucket %d = %d, want %d", i, got, want)
		}
	}
}

// TestHistogramUnboundedWindow pins that the histogram keeps counting past
// any window size instead of overwriting old samples, and that out-of-range
// values are retained in the +Inf bucket rather than dropped.
func TestHistogramUnboundedWindow(t *testing.T) {
	h := newHistogram([]float64{1, 10, 100})
	const n = 2048
	for i := 0; i < n; i++ {
		h.Observe(5)
	}
	h.Observe(1e9) // far beyond the last bound
	if got := h.Count(); got != n+1 {
		t.Fatalf("count = %d, want %d (no wraparound)", got, n+1)
	}
	if got := h.buckets[len(h.bounds)].Load(); got != 1 {
		t.Fatalf("+Inf bucket = %d, want 1", got)
	}
	if got := h.buckets[1].Load(); got != n {
		t.Fatalf("le=10 bucket = %d, want %d", got, n)
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	h := newHistogram([]float64{1, 2, 3})
	var wg sync.WaitGroup
	const workers, per = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(1.5)
			}
		}()
	}
	wg.Wait()
	if got := h.Count(); got != workers*per {
		t.Fatalf("count = %d, want %d", got, workers*per)
	}
	if got := h.Sum(); got != workers*per*1.5 {
		t.Fatalf("sum = %v, want %v", got, workers*per*1.5)
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("sdrd_jobs_done_total", "Completed jobs.").Add(3)
	r.Gauge("sdrd_queue_depth", "Queued jobs.").Set(2)
	r.GaugeFunc("sdrd_queue_capacity", "Queue capacity.", func() float64 { return 16 })
	h := r.Histogram("sdrd_job_duration_ms", "Job wall time.", []float64{1, 10})
	h.Observe(0.5)
	h.Observe(5)
	h.Observe(50)
	out := render(t, r)
	want := `# HELP sdrd_jobs_done_total Completed jobs.
# TYPE sdrd_jobs_done_total counter
sdrd_jobs_done_total 3
# HELP sdrd_queue_depth Queued jobs.
# TYPE sdrd_queue_depth gauge
sdrd_queue_depth 2
# HELP sdrd_queue_capacity Queue capacity.
# TYPE sdrd_queue_capacity gauge
sdrd_queue_capacity 16
# HELP sdrd_job_duration_ms Job wall time.
# TYPE sdrd_job_duration_ms histogram
sdrd_job_duration_ms_bucket{le="1"} 1
sdrd_job_duration_ms_bucket{le="10"} 2
sdrd_job_duration_ms_bucket{le="+Inf"} 3
sdrd_job_duration_ms_sum 55.5
sdrd_job_duration_ms_count 3
`
	if out != want {
		t.Errorf("exposition mismatch:\ngot:\n%s\nwant:\n%s", out, want)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("weird_total", "W.", "path", "a\"b\\c\nd").Inc()
	out := render(t, r)
	if !strings.Contains(out, `weird_total{path="a\"b\\c\nd"} 1`) {
		t.Errorf("labels not escaped:\n%s", out)
	}
}

func TestBucketHelpers(t *testing.T) {
	exp := ExponentialBuckets(1, 2, 4)
	if want := []float64{1, 2, 4, 8}; !equalF(exp, want) {
		t.Errorf("ExponentialBuckets = %v, want %v", exp, want)
	}
}

func equalF(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func render(t *testing.T, r *Registry) string {
	t.Helper()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	return b.String()
}
