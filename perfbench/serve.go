package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"sdr/internal/campaign"
	"sdr/internal/server"
)

// serveWorkload runs the sdrd service in process on a loopback listener
// (Workers = nproc, per-job Parallel = 1) under one closed-loop client. The
// client submits small sweep jobs and reads each job's record stream to
// its end; every fourth submission repeats the client's previous request,
// which the dedup cache answers. An op is one job, from submit to the last
// record line. A pass is jobsPerPass submissions with fresh seeds; each
// pass is a repetition of the window's op sequence.
type serveWorkload struct {
	cfg         config
	n, trials   int
	jobsPerPass int
	ln          net.Listener
	srv         *http.Server
	mgr         *server.Manager
	client      *http.Client
	base        string
	served      chan error
}

func newServeJobs(cfg config) workload {
	w := &serveWorkload{cfg: cfg, n: 256, trials: 4, jobsPerPass: 64}
	if cfg.tiny {
		w.n, w.trials, w.jobsPerPass = 24, 2, 8
	}
	return w
}

// warmUpJobs is how many jobs set-up runs.
const warmUpJobs = 4

// request is the job the client submits as the k-th job of a pass: a fresh
// seed, except that every fourth job repeats the previous one.
func (w *serveWorkload) request(pass, k int) server.JobRequest {
	if k%4 == 3 {
		k--
	}
	return server.JobRequest{Sweep: &server.SweepRequest{
		Algorithms: []string{"unison"},
		Topologies: []string{"ring", "grid"},
		Daemons:    []string{"distributed-random"},
		Faults:     []string{"random-all"},
		Sizes:      []int{w.n},
		Trials:     w.trials,
		Seed:       (w.cfg.seed*10_007+int64(pass))*1_009 + int64(k) + 1,
	}}
}

// setup starts the service and runs warmUpJobs jobs untimed, with seeds of
// their own, which resolves every cell a job has.
func (w *serveWorkload) setup() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	w.ln = ln
	w.mgr = server.NewManager(server.Config{Workers: w.cfg.nproc, Parallel: 1})
	w.srv = &http.Server{Handler: server.New(w.mgr), ReadHeaderTimeout: 10 * time.Second}
	w.served = make(chan error, 1)
	go func() { w.served <- w.srv.Serve(ln) }()
	w.base = "http://" + ln.Addr().String()
	w.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}}
	for k := 0; k < warmUpJobs; k++ {
		j := w.job(w.request(-1, k), nil, 0)
		if j.err == nil {
			j.err = w.check(j.id, j.lines)
		}
		if j.err != nil {
			return fmt.Errorf("warm-up job: %w", j.err)
		}
	}
	return nil
}

// close stops the HTTP server, waits for its handlers and drains the
// manager's workers.
func (w *serveWorkload) close() {
	if w.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		w.srv.Shutdown(ctx) // handlers still running after the timeout are abandoned with the process
		cancel()
		<-w.served
	}
	if w.mgr != nil {
		w.mgr.Drain()
	}
	if w.client != nil {
		w.client.CloseIdleConnections()
	}
	if w.ln != nil {
		w.ln.Close() // already closed by Shutdown; a second close only errors
	}
}

func (w *serveWorkload) context() map[string]any {
	return map[string]any{"clients": 1, "workers": w.cfg.nproc, "parallel": 1, "shards": 1,
		"n": w.n, "trials_per_job": w.trials, "jobs_per_pass": w.jobsPerPass, "op": "job"}
}

// jobResult is one client operation.
type jobResult struct {
	id       string
	latency  time.Duration
	deduped  bool
	rejected int
	digest   string
	lines    [][]byte
	err      error
}

// job submits req and reads its record stream to the end. With tr set it
// records the job's spans under op id op.
func (w *serveWorkload) job(req server.JobRequest, tr *tracer, op int) jobResult {
	var r jobResult
	body, err := json.Marshal(req)
	if err != nil {
		r.err = err
		return r
	}
	start := time.Now()
	var posted time.Time
	var sub server.SubmitResponse
	for {
		resp, err := w.client.Post(w.base+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			r.err = fmt.Errorf("submit: %w", err)
			return r
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			r.err = fmt.Errorf("submit: %w", err)
			return r
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			r.rejected++
			time.Sleep(5 * time.Millisecond)
			continue
		}
		if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
			r.err = fmt.Errorf("submit: HTTP %d: %s", resp.StatusCode, data)
			return r
		}
		posted = time.Now()
		if err := json.Unmarshal(data, &sub); err != nil {
			r.err = fmt.Errorf("submit: %w", err)
			return r
		}
		break
	}
	r.id, r.deduped = sub.ID, sub.Deduped

	requested := time.Now()
	resp, err := w.client.Get(w.base + sub.RecordsURL)
	if err != nil {
		r.err = fmt.Errorf("records: %w", err)
		return r
	}
	defer resp.Body.Close()
	h := sha256.New()
	br := bufio.NewReader(resp.Body)
	var firstLine time.Time
	for {
		line, err := br.ReadBytes('\n')
		if len(line) > 0 {
			if firstLine.IsZero() {
				firstLine = time.Now()
			}
			h.Write(line)
			r.lines = append(r.lines, line)
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			r.err = fmt.Errorf("records: %w", err)
			return r
		}
	}
	end := time.Now()
	r.latency = end.Sub(start)
	r.digest = hex.EncodeToString(h.Sum(nil))
	if tr != nil {
		root := tr.add("job", op, -1, start, end)
		tr.add("server.submit", op, root, start, posted)
		records := tr.add("server.records", op, root, requested, end)
		tr.add("server.first_line", op, records, requested, firstLine)
		tr.add("server.stream", op, records, firstLine, end)
	}
	return r
}

// check verifies a finished job's status against its stream: the job must
// end done, its stream must hold as many lines as its status reports, and
// every trial record must be OK.
func (w *serveWorkload) check(id string, lines [][]byte) error {
	var st server.JobStatus
	for {
		resp, err := w.client.Get(w.base + "/v1/jobs/" + id)
		if err != nil {
			return fmt.Errorf("status: %w", err)
		}
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			return fmt.Errorf("status: %w", err)
		}
		// The stream ends a moment before the job records its final state.
		if st.State != server.StateRunning {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if st.State != server.StateDone {
		return fmt.Errorf("job %s ended %s: %s", id, st.State, st.Error)
	}
	if st.Records != len(lines) {
		return fmt.Errorf("job %s: status reports %d records, stream held %d", id, st.Records, len(lines))
	}
	if want := 1 + 2*w.trials; len(lines) != want {
		return fmt.Errorf("job %s: %d lines, want %d", id, len(lines), want)
	}
	for _, line := range lines[1:] {
		var rec campaign.TrialRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			return fmt.Errorf("job %s: %w", id, err)
		}
		if !rec.OK {
			return fmt.Errorf("job %s: trial %v/%d failed its check", id, rec.CellKey, rec.Trial)
		}
	}
	return nil
}

// serveRun is what one run of the client produced.
type serveRun struct {
	win      window
	first    []jobResult // the first pass's jobs
	jobs     int
	deduped  int
	rejected int
	next     int // the first pass not run
}

// run drives the closed-loop client over whole passes, at least one, and
// starts no pass once seconds have elapsed. Each job is checked right after
// it ends, outside its time: it must end done with as many stream lines as
// its status reports, a repeat must be answered by the dedup cache with the
// byte-identical stream of the job it repeats. The window's digest folds
// the first pass's stream digests. Every run starts at pass base, so that
// the traced run's jobs are fresh after the untraced run's.
func (w *serveWorkload) run(base int, seconds float64, tr *tracer) serveRun {
	var r serveRun
	start := time.Now()
	for pass := base; pass == base || time.Since(start).Seconds() < seconds; pass++ {
		times := make([]float64, w.jobsPerPass)
		failed := 0
		var prev jobResult
		for k := range times {
			j := w.job(w.request(pass, k), tr, pass*w.jobsPerPass+k)
			times[k] = float64(j.latency) / 1e6
			if j.err == nil {
				j.err = w.check(j.id, j.lines)
			}
			if j.err == nil && k%4 == 3 {
				if !j.deduped {
					j.err = errors.New("repeated request was not deduplicated")
				} else if j.digest != prev.digest {
					j.err = errors.New("deduplicated stream differs from the original")
				}
			}
			if j.err != nil {
				fmt.Fprintln(stderr, "perfbench: serve-jobs:", j.err)
				failed++
			}
			r.jobs++
			r.rejected += j.rejected
			if j.deduped {
				r.deduped++
			}
			if pass == base {
				r.first = append(r.first, j)
			} else {
				j.lines = nil
			}
			prev = j
		}
		if failed == 0 {
			r.win.addRep(times)
		}
		r.win.ops += w.jobsPerPass
		r.win.failed += failed
		r.next = pass + 1
	}
	r.win.wall = time.Since(start)
	r.win.attempted = r.win.ops
	var parts []string
	for _, j := range r.first {
		parts = append(parts, j.digest)
	}
	r.win.digest = digestOf(parts)
	return r
}

func (w *serveWorkload) measure(seconds float64) window {
	return w.run(0, seconds, nil).win
}

// replayJobs is how many jobs of the first traced pass are replayed
// outside the service.
const replayJobs = 16

// trace runs half the window untraced and half traced (tracing overhead),
// reads the job-duration histogram from /metrics, and replays fresh jobs
// outside the service for the campaign and sim layers.
func (w *serveWorkload) trace(seconds float64, tr *tracer) (map[string]float64, window) {
	m := newLayerMetrics()
	plain := w.run(0, seconds/2, nil)
	untraced := plain.win

	runSum0, runCount0, err := w.jobDurations()
	if err != nil {
		return m, failAll(1, err)
	}
	cpu0 := readCPU()
	traced := w.run(plain.next, seconds/2, tr)
	cpu1 := readCPU()
	runSum1, runCount1, err := w.jobDurations()
	if err != nil {
		return m, failAll(untraced.attempted, err)
	}
	win := untraced
	win.attempted += traced.win.attempted
	win.failed += traced.win.failed

	m["process.gc_cpu_frac"] = gcFrac(cpu0, cpu1)
	untracedRate, _ := untraced.medians()
	tracedRate, _ := traced.win.medians()
	if tracedRate > 0 {
		m["tracing_overhead_frac"] = untracedRate/tracedRate - 1
	}
	m["server.submit_ms_p50"] = median(tr.durations("server.submit")) / 1e6
	m["server.first_line_ms_p50"] = median(tr.durations("server.first_line")) / 1e6
	m["server.stream_ms_p50"] = median(tr.durations("server.stream")) / 1e6
	_, _, coverage := tr.layerTimes()
	m["trace.coverage"] = coverage
	if n := runCount1 - runCount0; n > 0 {
		m["server.job_run_ms_mean"] = (runSum1 - runSum0) / n
	}
	// One client keeps at most one job running at a time.
	m["campaign.pool_utilization"] = (runSum1 - runSum0) / 1e3 / traced.win.wall.Seconds()
	m["server.dedup_hit_frac"] = float64(traced.deduped) / float64(traced.jobs)
	m["server.rejected"] = float64(traced.rejected)

	// The first traced pass's first fresh jobs, replayed outside the
	// service, must write the records the service streamed.
	first := traced.first[:min(replayJobs, len(traced.first))]
	var specs []campaign.Spec
	for k := range first {
		if k%4 == 3 {
			continue
		}
		spec, err := w.request(plain.next, k).Normalize()
		if err != nil {
			return m, failAll(win.attempted, err)
		}
		specs = append(specs, spec)
	}
	own := newTracer()
	outs, err := replay(specs, own, 0, 4, true)
	if err != nil {
		return m, failAll(win.attempted, err)
	}
	coverageJobs := m["trace.coverage"]
	replayLayers(m, outs, own)
	m["trace.coverage"] = coverageJobs
	k := 0
	for j, r := range first {
		if j%4 == 3 {
			continue
		}
		if len(r.lines) == 0 {
			win.failed++
			continue
		}
		for _, line := range r.lines[1:] {
			if k >= len(outs) || !bytes.Equal(line, outs[k].line) {
				win.failed++
			}
			k++
		}
	}
	microLayers(m, outs)
	if m["graph.build_ms"], err = buildTopologies(specs, w.cfg.seed); err != nil {
		return m, failAll(win.attempted, err)
	}
	if m["campaign.marshal_us"], m["campaign.record_bytes"], err = marshalCost(outs, 20000); err != nil {
		return m, failAll(win.attempted, err)
	}
	return m, win
}

// jobDurations reads the sum (milliseconds) and count of the service's
// job-duration histogram from GET /metrics.
func (w *serveWorkload) jobDurations() (sum, count float64, err error) {
	resp, err := w.client.Get(w.base + "/metrics")
	if err != nil {
		return 0, 0, fmt.Errorf("metrics: %w", err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	found := 0
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) != 2 {
			continue
		}
		switch fields[0] {
		case "sdrd_job_duration_ms_sum":
			sum, err = strconv.ParseFloat(fields[1], 64)
			found++
		case "sdrd_job_duration_ms_count":
			count, err = strconv.ParseFloat(fields[1], 64)
			found++
		}
		if err != nil {
			return 0, 0, fmt.Errorf("metrics: %w", err)
		}
	}
	if err := sc.Err(); err != nil {
		return 0, 0, fmt.Errorf("metrics: %w", err)
	}
	if found != 2 {
		return 0, 0, errors.New("metrics: sdrd_job_duration_ms histogram not found")
	}
	return sum, count, nil
}
