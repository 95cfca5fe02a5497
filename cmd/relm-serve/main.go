// Command relm-serve runs the tuning service: a long-lived HTTP server
// multiplexing concurrent tuning sessions over every policy in the
// repository (RelM, BO, GBO, DDPG). Remote clients drive the
// suggest/observe loop with real measurements; auto-mode sessions are
// driven by the server's worker pool on the simulator.
//
// With -data-dir the server is durable: every session event is journaled
// to a segmented append-only write-ahead log (<dir>/wal-000001.jsonl, …)
// with periodic compacted snapshots (<dir>/snapshot.json), a restarted
// server resumes every open session with full history, and completed
// sessions feed a persisted model repository that warm-starts later
// sessions on the same workload (§6.6 model re-use). Segments rotate at
// -wal-segment-bytes, so compaction deletes sealed segments instead of
// rewriting the log; with -fsync, appends are group-committed — concurrent
// observations share one fsync batch, optionally coalescing for an extra
// -commit-interval (the latency cap).
// A pre-segmentation data directory (single wal.jsonl) is refused at
// start-up with an error naming the file.
// The model repository is bounded by -repo-cap with least-recently-matched
// eviction and inspectable at GET /v1/repository.
//
// Usage:
//
//	relm-serve [-addr :8080] [-workers 4] [-ttl 30m] [-max-sessions 4096]
//	           [-data-dir relm-data] [-snapshot-every 1024] [-fsync]
//	           [-wal-segment-bytes 4194304] [-commit-interval 0]
//	           [-warm-distance 0.25] [-repo-cap 1024]
//	           [-node-id a] [-advertise http://10.0.0.1:8080]
//	           [-replicate-to b=http://10.0.0.2:8080,c=http://10.0.0.3:8080]
//	           [-replica-dir <data-dir>/replicas] [-replicate-every 500ms]
//	           [-replica-factor 1]
//	           [-log-level info] [-slow-log 0] [-pprof-addr ""]
//
// Observability: every hot stage (suggest/observe/create, surrogate
// append vs. refit, acquisition scoring, WAL append and group-commit
// flush wait, replica ship/ingest) is timed into lock-free latency
// histograms, exposed as percentile digests on GET /v1/metrics and in
// Prometheus text form on GET /metrics. Every request carries a trace
// (X-Relm-Trace, minted here or adopted from the router) whose timed
// spans land in the GET /v1/traces ring; -slow-log logs any request
// slower than the threshold span-by-span, and -pprof-addr serves
// net/http/pprof on a side port. Logs are log/slog text lines filtered
// by -log-level.
//
// In a multi-node cluster each node runs with a unique -node-id (session
// IDs become "<node>-sess-N", unique without coordination) and a
// relm-router in front partitions sessions across the nodes; see
// cmd/relm-router.
//
// With -replicate-to the node ships its write-ahead log (snapshot +
// sealed segments + active-segment tail) to -replica-factor
// rendezvous-chosen peers and ingests other primaries' logs under
// -replica-dir. When a node dies without draining, a router started with
// -promote fences the dead node's replica on a follower, replays it, and
// re-creates the lost sessions on the survivors — automatic fail-over.
//
// One full remote tuning loop:
//
//	curl -s -X POST localhost:8080/v1/sessions \
//	    -d '{"backend":"gbo","workload":"K-means","cluster":"A","seed":1}'
//	curl -s -X POST localhost:8080/v1/sessions/sess-1/suggest
//	curl -s -X POST localhost:8080/v1/sessions/sess-1/observe \
//	    -d '{"config":{...},"runtime_sec":212.4}'
//	curl -s localhost:8080/v1/sessions/sess-1
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
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"relm/internal/fault"
	"relm/internal/obs"
	"relm/internal/replica"
	"relm/internal/service"
	"relm/internal/store"
)

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		workers      = flag.Int("workers", 4, "auto-tuning worker pool size")
		ttl          = flag.Duration("ttl", 30*time.Minute, "idle-session eviction TTL")
		maxSessions  = flag.Int("max-sessions", 4096, "live-session limit")
		dataDir      = flag.String("data-dir", "", "durable store directory (empty = in-memory only, nothing survives a restart)")
		snapEvery    = flag.Int("snapshot-every", 1024, "consider a checkpoint after this many events; one is taken when the log since the last outweighs it")
		fsync        = flag.Bool("fsync", false, "fsync the write-ahead log on every event, group-committed (survives machine crashes)")
		segmentBytes = flag.Int64("wal-segment-bytes", 4<<20, "rotate write-ahead-log segments at this size")
		commitIvl    = flag.Duration("commit-interval", 0, "group-commit latency cap: extra time an fsync batch coalesces (with -fsync; 0 = flush as soon as the committer is free)")
		warmDistance = flag.Float64("warm-distance", 0.25, "default fingerprint-distance threshold for warm-start matching")
		repoCap      = flag.Int("repo-cap", 1024, "model-repository capacity; least-recently-matched entries are evicted past it (negative = unbounded)")
		nodeID       = flag.String("node-id", "", "node identity in a multi-node cluster: prefixes session IDs, reported by /healthz for router verification")
		advertise    = flag.String("advertise", "", "URL routers should reach this node at (informational, surfaced by /healthz)")
		replicateTo  = flag.String("replicate-to", "", "comma-separated replication peers, each 'name=url' (self filtered out by name); enables WAL log-shipping and replica ingest (requires -data-dir and -node-id)")
		replicaDir   = flag.String("replica-dir", "", "directory for ingesting other primaries' replicas (default <data-dir>/replicas)")
		replicateIvl = flag.Duration("replicate-every", 500*time.Millisecond, "log-shipping interval: how often the active segment tail and new sealed segments are shipped to followers")
		replicaN     = flag.Int("replica-factor", 1, "followers per primary (1 or 2): how many rendezvous-chosen peers receive this node's log")
		slowLog      = flag.Duration("slow-log", 0, "log any request slower than this span-by-span (0 = off)")
		pprofAddr    = flag.String("pprof-addr", "", "serve net/http/pprof on this address (empty = off)")
		faultsPath   = flag.String("faults", "", "JSON fault-injection schedule armed at startup (testing; see docs/OPERATIONS.md)")
	)
	var logLevel slog.Level
	flag.TextVar(&logLevel, "log-level", slog.LevelInfo, "minimum log level: debug, info, warn, error")
	flag.Parse()

	logNode := *nodeID
	if logNode == "" {
		logNode = "serve"
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: logLevel})).With("node", logNode)
	reg := obs.NewRegistry()

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

	opts := service.Options{
		TTL:             *ttl,
		Workers:         *workers,
		MaxSessions:     *maxSessions,
		SnapshotEvery:   *snapEvery,
		WarmMaxDistance: *warmDistance,
		RepoCapacity:    *repoCap,
		NodeID:          *nodeID,
		Advertise:       *advertise,
		Obs:             reg,
		SlowLog:         *slowLog,
		SlowLogf:        obs.Logf(logger, slog.LevelWarn),
	}
	var st *store.File
	if *dataDir != "" {
		var err error
		st, err = store.OpenFile(*dataDir, store.FileOptions{
			SyncEachAppend: *fsync,
			SegmentBytes:   *segmentBytes,
			CommitInterval: *commitIvl,
			AppendHist:     reg.Histogram("wal.append"),
			FlushWaitHist:  reg.Histogram("wal.flush_wait"),
		})
		if err != nil {
			log.Fatalf("open store: %v", err)
		}
		opts.Store = st
	}

	if *replicateTo != "" {
		if *dataDir == "" || *nodeID == "" {
			log.Fatalf("-replicate-to requires -data-dir and -node-id")
		}
		peers, err := parsePeers(*replicateTo)
		if err != nil {
			log.Fatalf("parse -replicate-to: %v", err)
		}
		dir := *replicaDir
		if dir == "" {
			dir = filepath.Join(*dataDir, "replicas")
		}
		set, err := replica.New(replica.Options{
			Self:       *nodeID,
			Peers:      peers,
			Factor:     *replicaN,
			Dir:        dir,
			Source:     st,
			Interval:   *replicateIvl,
			Logf:       obs.Logf(logger, slog.LevelInfo),
			ShipHist:   reg.Histogram("replica.ship"),
			IngestHist: reg.Histogram("replica.ingest"),
		})
		if err != nil {
			log.Fatalf("start replication: %v", err)
		}
		defer set.Close()
		opts.Replica = set
		followers := make([]string, 0, *replicaN)
		for _, p := range replica.Followers(*nodeID, peers, *replicaN) {
			followers = append(followers, p.Name)
		}
		logger.Info("replicating WAL", "followers", fmt.Sprintf("%v", followers), "interval", *replicateIvl, "ingest_dir", dir)
	}

	m, err := service.Open(opts)
	if err != nil {
		log.Fatalf("restore sessions: %v", err)
	}
	defer m.Close()
	if *dataDir != "" {
		mt := m.Metrics()
		logger.Info("restored sessions", "sessions", mt.Sessions, "observations", mt.Observations,
			"repo_models", mt.RepoEntries, "dir", *dataDir)
	}

	srv := &http.Server{
		Addr:              *addr,
		Handler:           service.NewHandler(m),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	logger.Info("relm-serve listening", "addr", *addr, "node", *nodeID, "workers", *workers, "ttl", *ttl, "data_dir", *dataDir)

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

// parsePeers splits "a=http://host:port,b=..." into replication peers.
func parsePeers(s string) ([]replica.Peer, error) {
	var out []replica.Peer
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, u, ok := strings.Cut(part, "=")
		if !ok || name == "" || u == "" {
			return nil, fmt.Errorf("bad peer %q (want 'name=url')", part)
		}
		out = append(out, replica.Peer{Name: name, URL: u})
	}
	if len(out) == 0 {
		return nil, errors.New("no peers given")
	}
	return out, nil
}
