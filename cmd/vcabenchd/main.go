// Command vcabenchd serves campaign grids over HTTP: clients POST
// declarative campaign specs, the daemon executes them through the
// shared scheduler with bounded concurrency, and results are served as
// typed JSON — byte-identical to what `vcabench -campaign spec.json
// -json -` prints for the same spec, scale and seed. With -cache, every
// campaign shares one persistent cell store (also shareable with the
// CLI), so overlapping grids from many clients recompute nothing.
//
// The daemon doubles as a distributed-execution worker: POST /units
// runs a single campaign cell, which is how a `vcabench -workers ...`
// coordinator (or any cluster.Pool) shards a campaign across a fleet
// of vcabenchd processes. SIGINT/SIGTERM shut down gracefully: the
// listener closes, in-flight requests and running campaigns drain
// (bounded by -grace), then the process exits 0. A second signal kills
// immediately.
//
// Usage:
//
//	vcabenchd [-addr :8547] [-scale quick] [-seed 42]
//	          [-parallel N] [-runs M] [-cache DIR] [-grace 60s] [-diag]
//
// Endpoints (see internal/serve for the full contract):
//
//	POST /campaigns             submit {"spec": {...}, "scale": "...", "seed": N}
//	GET  /campaigns/{id}        poll job status
//	GET  /campaigns/{id}/result fetch the result document
//	GET  /cells/{key}           fetch one cell by canonical unit key: the
//	                            cell of the job that finished last with
//	                            that key at that scale and seed, from
//	                            memory or, after eviction or a restart,
//	                            from -cache
//	GET  /cells/{key}/diag      fetch the cell's sim-time diagnostics
//	                            artifact (needs -diag; byte-identical to
//	                            `vcabench -diag-out` for the same cell);
//	                            a cell whose key ends in "/diag" wins
//	POST /units                 run one campaign cell (worker endpoint)
//	GET  /healthz               liveness + store statistics
//	GET  /metrics               Prometheus text exposition (always on)
//
// With -pprof the net/http/pprof handlers are additionally mounted
// under /debug/pprof/ for CPU, heap, goroutine and mutex profiling of
// a live daemon (`go tool pprof http://host:8547/debug/pprof/profile`).
// Profiling is off by default: the endpoint serves raw memory contents
// and belongs behind the same trust boundary as the daemon itself.
//
// Example session:
//
//	vcabenchd -scale tiny -cache /var/cache/vcabench &
//	curl -s -X POST localhost:8547/campaigns \
//	    -d "{\"spec\": $(cat spec.json)}" | jq -r .id
//	curl -s localhost:8547/campaigns/<id>          # until "status": "done"
//	curl -s localhost:8547/campaigns/<id>/result
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/vcabench/vcabench/internal/core"
	"github.com/vcabench/vcabench/internal/obs"
	"github.com/vcabench/vcabench/internal/serve"
	"github.com/vcabench/vcabench/internal/store"
)

func main() {
	var (
		addr     = flag.String("addr", ":8547", "listen address")
		scale    = flag.String("scale", "quick", "default experiment scale: tiny, quick or paper")
		seed     = flag.Int64("seed", 42, "default simulation seed")
		parallel = flag.Int("parallel", 0, "worker pool per campaign (0 = GOMAXPROCS, 1 = serial)")
		runs     = flag.Int("runs", 0, "concurrently executing campaigns (0 = NumCPU)")
		cacheDir = flag.String("cache", "", "persist campaign-unit results in this directory")
		grace    = flag.Duration("grace", time.Minute, "on SIGINT/SIGTERM, wait this long for in-flight work to drain")
		pprofOn  = flag.Bool("pprof", false, "mount net/http/pprof handlers under /debug/pprof/")
		diagOn   = flag.Bool("diag", false, "arm the sim-time flight recorder; cell diagnostics served at GET /cells/{key}/diag")
	)
	flag.Parse()

	if *parallel < 0 || *runs < 0 {
		fmt.Fprintln(os.Stderr, "vcabenchd: -parallel and -runs must be >= 0")
		flag.Usage()
		os.Exit(2)
	}
	sc, ok := core.ScaleByName(*scale)
	if !ok {
		fmt.Fprintf(os.Stderr, "vcabenchd: unknown scale %q\n", *scale)
		os.Exit(2)
	}
	// The daemon is always observed: one registry carries serve, engine
	// and store series, scraped at GET /metrics.
	tel := obs.NewTelemetry()
	cfg := serve.Config{Seed: *seed, Scale: sc, Workers: *parallel, MaxRuns: *runs, Telemetry: tel, Diagnostics: *diagOn}
	if *cacheDir != "" {
		st, err := store.OpenOptions(*cacheDir, store.Options{Telemetry: tel})
		if err != nil {
			fmt.Fprintln(os.Stderr, "vcabenchd:", err)
			os.Exit(1)
		}
		cfg.Store = st
	}
	srv := serve.New(cfg)
	handler := srv.Handler()
	if *pprofOn {
		outer := http.NewServeMux()
		outer.Handle("/", handler)
		// pprof.Index dispatches /debug/pprof/<name> to every named
		// profile (heap, goroutine, mutex, ...) itself.
		outer.HandleFunc("GET /debug/pprof/", pprof.Index)
		outer.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		outer.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		outer.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		outer.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
		handler = outer
	}
	hs := &http.Server{Addr: *addr, Handler: handler}

	// First SIGINT/SIGTERM starts a graceful shutdown; stop() then
	// restores default signal handling, so a second signal kills the
	// process even if draining hangs. One grace budget, started at the
	// signal, covers both in-flight HTTP requests and running jobs.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	deadlineCh := make(chan time.Time, 1)
	shutdownErr := make(chan error, 1)
	go func() {
		<-ctx.Done()
		stop()
		log.Printf("vcabenchd: signal received, draining (up to %s; signal again to kill)", *grace)
		deadlineCh <- time.Now().Add(*grace)
		sctx, cancel := context.WithTimeout(context.Background(), *grace)
		defer cancel()
		shutdownErr <- hs.Shutdown(sctx)
	}()

	if *pprofOn {
		log.Printf("vcabenchd: pprof handlers mounted at /debug/pprof/")
	}
	log.Printf("vcabenchd: listening on %s (%s)", *addr, srv.Describe())
	if err := hs.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
		log.Fatal("vcabenchd: ", err)
	}
	deadline := <-deadlineCh
	// Wait for Shutdown itself before draining jobs: only then has
	// every in-flight handler returned, so every accepted submission
	// has registered the job DrainJobs must wait on.
	if err := <-shutdownErr; err != nil {
		log.Printf("vcabenchd: shutdown: %v", err)
	}
	drained := make(chan struct{})
	go func() { srv.DrainJobs(); close(drained) }()
	select {
	case <-drained:
		log.Printf("vcabenchd: drained, exiting")
	case <-time.After(time.Until(deadline)):
		log.Printf("vcabenchd: grace period expired with campaigns still running, exiting")
	}
}
