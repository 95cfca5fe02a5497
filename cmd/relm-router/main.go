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
//	            [-breaker-threshold 3] [-breaker-probe 1s] [-breaker-probe-max 30s] \
//	            [-promote] [-log-level info] [-slow-log 0] [-pprof-addr ""]
//
// Observability: the router times its own stages (placement pick, each
// proxy hop, fan-outs) into latency histograms exposed on GET /metrics
// (Prometheus text, router-local: backend gauges, breaker counters,
// stage latencies). It mints a trace ID per request, propagates it to
// the backends via X-Relm-Trace, and keeps its own span ring at GET
// /v1/traces; -slow-log logs slow requests span-by-span and -pprof-addr
// serves net/http/pprof on a side port.
//
// Each backend has a circuit breaker on the data path: after
// -breaker-threshold consecutive transport failures it stops receiving
// requests entirely, then admits a single probe after an exponentially
// growing delay (-breaker-probe up to -breaker-probe-max); a served
// request closes it. Routed requests spend at most -retry-budget retries
// on further candidates after a transport failure or a 503-draining
// answer.
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
//	curl -s localhost:8090/v1/cluster                 # node table, breaker + promotion state
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
	"strings"
	"syscall"
	"time"

	"relm/internal/fault"
	"relm/internal/obs"
	"relm/internal/router"
)

func main() {
	var (
		addr       = flag.String("addr", ":8090", "listen address")
		backends   = flag.String("backends", "", "comma-separated backends, each 'name=url' (name must match the node's -node-id)")
		checkIvl   = flag.Duration("check-interval", 2*time.Second, "healthy-backend poll period")
		backoffMax = flag.Duration("check-backoff-max", 30*time.Second, "failing-backend poll backoff cap")
		failAfter  = flag.Int("fail-after", 2, "consecutive health-check failures before a backend is routed around")
		timeout    = flag.Duration("timeout", 15*time.Second, "per-request backend timeout")
		retryBud   = flag.Int("retry-budget", 2, "extra candidates a routed request or hand-over adoption may be retried on after a transport failure, 503-draining or 503 + Retry-After answer")
		brThresh   = flag.Int("breaker-threshold", 3, "consecutive transport failures that open a backend's circuit breaker")
		brProbe    = flag.Duration("breaker-probe", time.Second, "initial open-breaker probe delay (doubles per failed probe)")
		brProbeMax = flag.Duration("breaker-probe-max", 30*time.Second, "open-breaker probe delay cap")
		promote    = flag.Bool("promote", false, "enable automatic fail-over: promote a dead backend's WAL replica and have the survivors adopt its sessions")
		slowLog    = flag.Duration("slow-log", 0, "log any request slower than this span-by-span (0 = off)")
		pprofAddr  = flag.String("pprof-addr", "", "serve net/http/pprof on this address (empty = off)")
		faultsPath = flag.String("faults", "", "JSON fault-injection schedule armed at startup (testing; see docs/OPERATIONS.md)")
	)
	var logLevel slog.Level
	flag.TextVar(&logLevel, "log-level", slog.LevelInfo, "minimum log level: debug, info, warn, error")
	flag.Parse()

	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: logLevel})).With("node", "router")

	if *faultsPath != "" {
		if err := fault.ApplyFile(*faultsPath); err != nil {
			log.Fatalf("arm -faults: %v", err)
		}
		logger.Warn("fault injection armed", "schedule", *faultsPath)
	}

	if *pprofAddr != "" {
		go func() {
			logger.Info("pprof listening", "addr", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				logger.Error("pprof server failed", "err", err)
			}
		}()
	}

	bs, err := parseBackends(*backends)
	if err != nil {
		log.Fatalf("parse -backends: %v", err)
	}
	r, err := router.New(router.Options{
		Backends:         bs,
		CheckInterval:    *checkIvl,
		BackoffMax:       *backoffMax,
		FailAfter:        *failAfter,
		Timeout:          *timeout,
		RetryBudget:      *retryBud,
		BreakerThreshold: *brThresh,
		BreakerProbe:     *brProbe,
		BreakerProbeMax:  *brProbeMax,
		Promote:          *promote,
		Logf:             obs.Logf(logger, slog.LevelInfo),
		SlowLog:          *slowLog,
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

// parseBackends splits "a=http://host:port,b=..." into Backend specs.
func parseBackends(s string) ([]router.Backend, error) {
	if strings.TrimSpace(s) == "" {
		return nil, errors.New("no backends given (want -backends 'name=url,name=url')")
	}
	var out []router.Backend
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, u, ok := strings.Cut(part, "=")
		if !ok || name == "" || u == "" {
			return nil, fmt.Errorf("bad backend %q (want 'name=url')", part)
		}
		out = append(out, router.Backend{Name: name, URL: u})
	}
	return out, nil
}
