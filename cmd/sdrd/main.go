// Command sdrd serves the simulation stack as a long-running HTTP+JSON
// service (internal/server): clients submit sweep grids or full campaign
// specs as jobs and follow their campaign JSONL record streams live.
// Identical submissions are deduplicated by content hash — concurrent
// duplicates attach to the in-flight job, repeats of completed jobs are
// answered from a bounded result cache without re-running anything.
//
// The record stream a job serves is byte-identical to the CAMPAIGN_<id>.jsonl
// file an offline `sdrbench -campaign` run writes for the same spec and seed.
//
// Observability: GET /metrics exposes the shared obs registry (queue depth,
// job/dedup/backpressure counters, worker pool size and drain state, request
// and job latency histograms, records/sec, memo hit rate) in Prometheus text
// format, request and job-lifecycle events go to structured stderr logs, and
// -pprof additionally mounts GET /debug/pprof/* for runtime profiles.
//
// On SIGINT/SIGTERM the daemon drains gracefully: it stops accepting
// submissions, interrupts in-flight campaigns at their next record boundary
// (the same checkpoint semantics as the CLI's SIGINT handling), and exits
// once every stream is flushed.
//
// Usage:
//
//	sdrd [-addr :8321] [-workers 2] [-queue 16] [-parallel 8] [-cache 64] [-pprof] [-log-json]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"sdr/internal/server"
)

// Connection timeouts. A client that sends its request headers slowly, or
// keeps an idle keep-alive connection open, would otherwise hold a
// connection forever. Neither bounds a request in progress, so record
// streams that follow a long campaign stay open.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "sdrd:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("sdrd", flag.ContinueOnError)
	var cfg server.Config
	addr := fs.String("addr", ":8321", "listen address")
	fs.IntVar(&cfg.Workers, "workers", 2, "number of jobs executed concurrently")
	fs.IntVar(&cfg.QueueDepth, "queue", 16, "max queued (accepted, not started) jobs; beyond this, submissions get 429")
	fs.IntVar(&cfg.Parallel, "parallel", 0, "per-job trial parallelism (0 = one per CPU); record streams are identical for every value")
	fs.IntVar(&cfg.ResultCache, "cache", 64, "completed jobs retained for dedup and record serving (LRU)")
	pprofOn := fs.Bool("pprof", false, "mount GET /debug/pprof/* (exposes stacks and heap contents; opt-in)")
	logJSON := fs.Bool("log-json", false, "emit structured logs as JSON instead of logfmt-style text")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var handler slog.Handler = slog.NewTextHandler(os.Stderr, nil)
	if *logJSON {
		handler = slog.NewJSONHandler(os.Stderr, nil)
	}
	logger := slog.New(handler)
	cfg.Logger = logger

	mgr := server.NewManager(cfg)
	api := server.New(mgr)
	if *pprofOn {
		api.EnablePprof()
	}
	srv := &http.Server{Addr: *addr, Handler: api,
		ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	logger.Info("listening", "addr", ln.Addr().String(),
		"workers", cfg.Workers, "queue", cfg.QueueDepth, "pprof", *pprofOn)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	stop() // a second signal kills the process outright
	logger.Info("draining: interrupting jobs at their next record boundary")
	// Drain first so every record log finishes and followers disconnect;
	// only then can Shutdown's wait for active connections complete.
	mgr.Drain()
	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	logger.Info("drained, exiting")
	return nil
}
