// Package server implements the sdrd simulation service: an HTTP+JSON API
// over the campaign stream core with deduplicated, backpressured job
// execution.
//
// Endpoints (all under /v1, plus the observability pair):
//
//	GET    /v1/registry          registered algorithms/topologies/daemons/faults/churns
//	GET    /v1/version           environment fingerprint (same helper as campaign baselines)
//	POST   /v1/jobs              submit a sweep or campaign job
//	GET    /v1/jobs/{id}         job status
//	DELETE /v1/jobs/{id}         cancel at the next record boundary
//	GET    /v1/jobs/{id}/records stream the job's campaign JSONL records (?from= resumes)
//	GET    /metrics              Prometheus text-format exposition of the shared obs registry
//	GET    /debug/pprof/*        runtime profiles, mounted only by EnablePprof (sdrd -pprof)
//
// The record stream for a given spec and seed is byte-identical to the file
// `sdrbench -campaign` writes offline: both funnel through campaign.RunSink
// and campaign.MarshalLine.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"sdr/internal/campaign"
	"sdr/internal/obs"
	"sdr/internal/scenario"
)

// maxRequestBytes bounds a POST /v1/jobs body.
const maxRequestBytes = 1 << 20

// Server routes the sdrd HTTP API onto a Manager. Every /v1 route is
// wrapped with request instrumentation: a per-route latency histogram and a
// per-route-and-status counter in the manager's registry, plus a structured
// request log line when the manager has a logger.
type Server struct {
	m      *Manager
	mux    *http.ServeMux
	logger *slog.Logger
}

// New builds the HTTP API over the given manager.
func New(m *Manager) *Server {
	s := &Server{m: m, mux: http.NewServeMux(), logger: m.logger}
	s.handle("GET /v1/registry", s.handleRegistry)
	s.handle("GET /v1/version", s.handleVersion)
	s.handle("POST /v1/jobs", s.handleSubmit)
	s.handle("GET /v1/jobs/{id}", s.handleStatus)
	s.handle("DELETE /v1/jobs/{id}", s.handleCancel)
	s.handle("GET /v1/jobs/{id}/records", s.handleRecords)
	// The scrape endpoint itself stays uninstrumented so the request series
	// measure API traffic, not the scraper.
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s
}

// EnablePprof mounts net/http/pprof's handlers under /debug/pprof/ (sdrd's
// -pprof flag). Off by default: the profiling endpoints expose stacks and
// heap contents, so operators opt in explicitly.
func (s *Server) EnablePprof() {
	s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// handle registers an instrumented route: the handler runs behind a
// status-capturing writer, and on return the request is recorded into the
// route's latency histogram, the route×status counter, and the request log.
// The route label is the full mux pattern, so path parameters ({id}) do not
// explode the series cardinality.
func (s *Server) handle(pattern string, h http.HandlerFunc) {
	reg := s.m.Registry()
	hist := reg.Histogram("sdrd_http_request_duration_seconds",
		"HTTP request latency by route.", obs.DefBuckets, "route", pattern)
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		start := time.Now()
		h(sw, r)
		elapsed := time.Since(start)
		hist.Observe(elapsed.Seconds())
		reg.Counter("sdrd_http_requests_total", "HTTP requests by route and status.",
			"route", pattern, "code", strconv.Itoa(sw.code)).Inc()
		if s.logger != nil {
			s.logger.Info("request",
				"method", r.Method, "path", r.URL.Path, "status", sw.code,
				"duration_ms", float64(elapsed.Nanoseconds())/1e6)
		}
	})
}

// statusWriter captures the response status for instrumentation. It keeps
// forwarding Flush so the live record stream of handleRecords still flushes
// per line through the wrapper.
type statusWriter struct {
	http.ResponseWriter
	code        int
	wroteHeader bool
}

func (w *statusWriter) WriteHeader(code int) {
	if !w.wroteHeader {
		w.code = code
		w.wroteHeader = true
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	w.wroteHeader = true
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.m.Registry().WritePrometheus(w)
}

// SubmitResponse is the body of a successful POST /v1/jobs: the job status
// plus whether the submission was answered by an existing job.
type SubmitResponse struct {
	JobStatus
	Deduped    bool   `json:"deduped"`
	RecordsURL string `json:"records_url"`
}

// decodeRequest parses a POST /v1/jobs body; unknown fields are errors.
func decodeRequest(body io.Reader) (JobRequest, error) {
	var req JobRequest
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return JobRequest{}, fmt.Errorf("decode request: %w", err)
	}
	return req, nil
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	req, err := decodeRequest(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	job, created, err := s.m.Submit(req)
	switch {
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, err)
		return
	case errors.Is(err, ErrDraining):
		writeError(w, http.StatusServiceUnavailable, err)
		return
	case err != nil:
		writeError(w, http.StatusBadRequest, err)
		return
	}
	code := http.StatusAccepted
	if !created {
		code = http.StatusOK
	}
	writeJSON(w, code, SubmitResponse{
		JobStatus:  job.Status(),
		Deduped:    !created,
		RecordsURL: "/v1/jobs/" + job.ID + "/records",
	})
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	job, ok := s.m.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, errors.New("unknown job"))
		return
	}
	writeJSON(w, http.StatusOK, job.Status())
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	found, cancelled := s.m.Cancel(r.PathValue("id"))
	if !found {
		writeError(w, http.StatusNotFound, errors.New("unknown job"))
		return
	}
	if !cancelled {
		writeError(w, http.StatusConflict, errors.New("job already finished"))
		return
	}
	job, _ := s.m.Get(r.PathValue("id"))
	writeJSON(w, http.StatusOK, job.Status())
}

// handleRecords streams the job's JSONL record log from offset ?from=
// (default 0, line-indexed, header line included), following live output
// until the job finishes or the client goes away. The bytes are exactly the
// offline campaign file's: header line first, then one record per line.
func (s *Server) handleRecords(w http.ResponseWriter, r *http.Request) {
	job, ok := s.m.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, errors.New("unknown job"))
		return
	}
	from := 0
	if q := r.URL.Query().Get("from"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("invalid from offset %q", q))
			return
		}
		from = n
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	for {
		lines, closed, change := job.log.next(from)
		for _, ln := range lines {
			if _, err := w.Write(ln); err != nil {
				return
			}
		}
		from += len(lines)
		if flusher != nil && len(lines) > 0 {
			flusher.Flush()
		}
		if closed {
			return
		}
		select {
		case <-change:
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) handleRegistry(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	// The response body is WriteRegistryJSON's bytes verbatim — the same
	// encoder behind `sdrsim -list -json` and `sdrbench -list -json`.
	_ = scenario.WriteRegistryJSON(w)
}

func (s *Server) handleVersion(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, campaign.Fingerprint())
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// errorBody is the JSON shape of every non-2xx response.
type errorBody struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, errorBody{Error: err.Error()})
}
