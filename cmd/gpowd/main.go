// Command gpowd is the sweep service daemon: it serves the scenario
// registry over HTTP, accepts sweep jobs, executes them with bounded
// concurrency over the shared simulation-result cache, and streams cell
// records as NDJSON in deterministic plan order (see docs/SERVICE.md).
//
// Usage:
//
//	gpowd [-addr 127.0.0.1:8080] [-jobs 2] [-queue 16]
//	      [-retain N] [-retain-age DUR]
//	      [-state-dir DIR] [-drain-timeout DUR]
//	      [-cache-budget-mb N] [-cache-dir DIR]
//
// The cache flags mirror the GPUSIMPOW_SIM_CACHE_BUDGET_MB and
// GPUSIMPOW_SIM_CACHE_DIR environment variables: a byte budget bounds the
// in-memory timing cache (and feeds admission control), a cache directory
// spills timing results to disk so daemon restarts replay instead of
// re-simulating.
//
// -state-dir makes jobs durable: submissions, state transitions, cell
// records and the ETA calibration are journaled there, and a
// restarted daemon recovers them — completed jobs come back intact,
// queued jobs re-enqueue in submit order, and jobs the previous process
// was executing when it died re-execute bit-identically (see
// docs/SERVICE.md, "Durability and recovery"). On SIGTERM/SIGINT the
// daemon drains: it stops admitting (503), gives running jobs
// -drain-timeout to finish, then checkpoints the stragglers as
// interrupted for the next process.
//
// The retention flags bound the job table: completed (done/failed/
// canceled) jobs keep their cell records for /cells replays and /report,
// so -retain N evicts the oldest completed jobs beyond N and -retain-age
// prunes completed jobs older than the duration. Queued and running jobs
// are never pruned; 0 (the default) keeps everything. With -state-dir the
// same bounds govern the on-disk store.
//
// Drive it with gpowexp:
//
//	gpowexp -remote http://127.0.0.1:8080 list
//	gpowexp -remote http://127.0.0.1:8080 run fig6 -filter gpu=GT240
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	_ "gpusimpow/internal/experiments" // registers every scenario
	"gpusimpow/internal/service"
	"gpusimpow/internal/simcache"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address (port 0 picks a free port)")
	jobs := flag.Int("jobs", 2, "jobs executing concurrently (each fans out internally)")
	queue := flag.Int("queue", 16, "queued-job bound; submissions beyond it are rejected 429")
	retain := flag.Int("retain", 0, "keep at most N completed jobs, oldest evicted first (0 = keep all)")
	retainAge := flag.Duration("retain-age", 0, "prune completed jobs finished longer ago than this (0 = keep all)")
	stateDir := flag.String("state-dir", "", "journal job state here and recover it on restart")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "on SIGTERM, how long running jobs may finish before being checkpointed as interrupted")
	budgetMB := flag.Int64("cache-budget-mb", 0, "simulation-cache byte budget in MiB (0 = unbounded)")
	cacheDir := flag.String("cache-dir", "", "spill simulation results to this directory")
	flag.Parse()

	opts := service.Options{
		MaxConcurrent: *jobs,
		MaxQueued:     *queue,
		RetainJobs:    *retain,
		RetainAge:     *retainAge,
		StateDir:      *stateDir,
	}
	if err := run(*addr, opts, *drainTimeout, *budgetMB, *cacheDir); err != nil {
		fmt.Fprintln(os.Stderr, "gpowd:", err)
		os.Exit(1)
	}
}

func run(addr string, opts service.Options, drainTimeout time.Duration, budgetMB int64, cacheDir string) error {
	if budgetMB > 0 {
		simcache.Default().SetByteBudget(budgetMB << 20)
	}
	if cacheDir != "" {
		if err := simcache.Default().SetDir(cacheDir); err != nil {
			return err
		}
	}

	m, err := service.OpenManager(opts)
	if err != nil {
		return err
	}
	defer m.Close()
	if opts.StateDir != "" {
		if n := len(m.Jobs()); n > 0 {
			log.Printf("gpowd: recovered %d job(s) from %s", n, opts.StateDir)
		}
	}

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	log.Printf("gpowd: listening on http://%s", ln.Addr())

	srv := &http.Server{Handler: service.NewServer(m)}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		log.Printf("gpowd: %v, draining (up to %v)", sig, drainTimeout)
		// Drain order: the manager first (stop admitting, finish or
		// checkpoint running jobs, persist everything), then the HTTP
		// server — in-flight streams keep serving while jobs wind down,
		// and /v1/healthz reports "draining" throughout.
		ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
		defer cancel()
		m.Shutdown(ctx)
		sctx, scancel := context.WithTimeout(context.Background(), time.Second)
		defer scancel()
		_ = srv.Shutdown(sctx)
		log.Printf("gpowd: drained")
		return nil
	case err := <-errc:
		return err
	}
}
