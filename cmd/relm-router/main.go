// Command relm-router is the stateless HTTP front door of a multi-node
// tuning cluster: it partitions sessions across relm-serve backends by
// rendezvous hashing on the session ID, proxies the whole /v1/sessions
// lifecycle to each session's home node, merges the cluster-wide read
// endpoints (/v1/sessions, /v1/metrics, /v1/repository), health-checks the
// backends with exponential backoff, and orchestrates node drain/hand-off.
//
// Because placement is a pure function of (session ID, healthy-node set),
// any number of router replicas can run side by side with no shared state.
//
// Usage:
//
//	relm-router -backends a=http://10.0.0.1:8080,b=http://10.0.0.2:8080 \
//	            [-addr :8090] [-check-interval 2s] [-check-backoff-max 30s] \
//	            [-fail-after 2] [-timeout 15s] [-retry-budget 2] \
//	            [-promote] [-log-level info] [-slow-log 0] [-pprof-addr ""]
//
// Observability: the router times its own stages (placement pick, each
// proxy hop, fan-outs) into latency histograms exposed on GET /metrics
// (Prometheus text, router-local: backend gauges, retry counters,
// stage latencies). It mints a trace ID per request, propagates it to
// the backends via X-Relm-Trace, and keeps its own span ring at GET
// /v1/traces; -slow-log logs slow requests span-by-span and -pprof-addr
// serves net/http/pprof on a side port.
//
// The health loop is the only judge of a backend. A request that fails at
// the transport level marks its backend suspect, out of placement at once;
// it comes back on a later health check (every -check-interval, backing
// off to -check-backoff-max) when /healthz and one data-path read both
// answer — no client request is ever the probe. Routed requests spend at
// most -retry-budget retries on further candidates after a transport
// failure or a 503-draining answer.
//
// With -promote the router is also the fail-over controller: when a
// backend dies without draining (health-check death), the router locates
// the dead node's WAL replica on a surviving follower (the backends run
// with -replicate-to), promotes it, and has the survivors adopt every lost
// non-terminal session — original IDs, full replayed history. A drain
// hands sessions over the same way, from the live node instead of a
// replica.
//
// Cluster operations:
//
//	curl -s localhost:8090/v1/cluster                 # node table: health, suspect, promotion state
//	curl -s -X POST localhost:8090/v1/cluster/drain/a # drain node a, hand sessions to survivors
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"relm/internal/obs"
	"relm/internal/replica"
	"relm/internal/router"
)

func main() {
	var (
		addr       = flag.String("addr", ":8090", "listen address")
		backends   = flag.String("backends", "", "comma-separated backends, each 'name=url' (name must match the node's -node-id)")
		checkIvl   = flag.Duration("check-interval", 2*time.Second, "healthy-backend poll period")
		backoffMax = flag.Duration("check-backoff-max", 30*time.Second, "poll backoff cap for a failing or suspect backend")
		failAfter  = flag.Int("fail-after", 2, "consecutive health-check failures before a backend is declared down (a failed request counts as all of them)")
		timeout    = flag.Duration("timeout", 15*time.Second, "per-request backend timeout")
		retryBud   = flag.Int("retry-budget", 2, "extra candidates a routed request or hand-over adoption may be retried on after a transport failure, 503-draining or 503 + Retry-After answer")
		promote    = flag.Bool("promote", false, "enable automatic fail-over: promote a dead backend's WAL replica and have the survivors adopt its sessions")
		slowLog    = flag.Duration("slow-log", 0, "log any request slower than this span-by-span (0 = off)")
		pprofAddr  = flag.String("pprof-addr", "", "serve net/http/pprof on this address (empty = off)")
	)
	var logLevel slog.Level
	flag.TextVar(&logLevel, "log-level", slog.LevelInfo, "minimum log level: debug, info, warn, error")
	flag.Parse()

	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: logLevel})).With("node", "router")

	if *pprofAddr != "" {
		go func() {
			logger.Info("pprof listening", "addr", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				logger.Error("pprof server failed", "err", err)
			}
		}()
	}

	bs, err := replica.ParsePeers(*backends)
	if err != nil {
		log.Fatalf("parse -backends: %v", err)
	}
	r, err := router.New(router.Options{
		Backends:      bs,
		CheckInterval: *checkIvl,
		BackoffMax:    *backoffMax,
		FailAfter:     *failAfter,
		Timeout:       *timeout,
		RetryBudget:   *retryBud,
		Promote:       *promote,
		Logf:          obs.Logf(logger, slog.LevelInfo),
		SlowLog:       *slowLog,
	})
	if err != nil {
		log.Fatalf("start router: %v", err)
	}
	defer r.Close()

	srv := &http.Server{
		Addr:              *addr,
		Handler:           r,
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	logger.Info("relm-router listening", "addr", *addr, "backends", len(bs), "check_interval", *checkIvl)

	select {
	case <-ctx.Done():
		logger.Info("shutting down")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			fmt.Fprintf(os.Stderr, "shutdown: %v\n", err)
		}
	case err := <-errc:
		if !errors.Is(err, http.ErrServerClosed) {
			log.Fatalf("serve: %v", err)
		}
	}
}
