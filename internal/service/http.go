package service

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"time"

	"relm/internal/bo"
	"relm/internal/conf"
	"relm/internal/fault"
	"relm/internal/obs"
	"relm/internal/profile"
	"relm/internal/replica"
	"relm/internal/store"
	"relm/internal/wire"
)

// ConfigJSON is the wire form of a configuration (Table 1 knobs).
type ConfigJSON struct {
	ContainersPerNode int     `json:"containers_per_node"`
	TaskConcurrency   int     `json:"task_concurrency"`
	CacheCapacity     float64 `json:"cache_capacity"`
	ShuffleCapacity   float64 `json:"shuffle_capacity"`
	NewRatio          int     `json:"new_ratio"`
	SurvivorRatio     int     `json:"survivor_ratio"`
}

func toConfigJSON(c conf.Config) ConfigJSON {
	return ConfigJSON{
		ContainersPerNode: c.ContainersPerNode,
		TaskConcurrency:   c.TaskConcurrency,
		CacheCapacity:     c.CacheCapacity,
		ShuffleCapacity:   c.ShuffleCapacity,
		NewRatio:          c.NewRatio,
		SurvivorRatio:     c.SurvivorRatio,
	}
}

func (cj ConfigJSON) toConfig() conf.Config {
	return conf.Config{
		ContainersPerNode: cj.ContainersPerNode,
		TaskConcurrency:   cj.TaskConcurrency,
		CacheCapacity:     cj.CacheCapacity,
		ShuffleCapacity:   cj.ShuffleCapacity,
		NewRatio:          cj.NewRatio,
		SurvivorRatio:     cj.SurvivorRatio,
	}
}

// CreateRequest is the body of POST /v1/sessions.
type CreateRequest struct {
	// ID optionally assigns the session ID (Spec.ID): a cluster router
	// mints IDs so it can place sessions by consistent hashing before they
	// exist. Duplicate IDs fail with 409; the node's own "sess-N" counter
	// namespace is reserved and fails with 400.
	ID            string `json:"id,omitempty"`
	Backend       string `json:"backend"`
	Workload      string `json:"workload"`
	Cluster       string `json:"cluster"`
	Mode          string `json:"mode"`
	Seed          uint64 `json:"seed"`
	MaxIterations int    `json:"max_iterations"`
	MaxSteps      int    `json:"max_steps"`

	// WarmStart asks the service to seed the session from the model
	// repository (§6.6). Remote sessions supply their workload
	// fingerprint via stats (+ the default-configuration runtime for
	// rescaling); auto sessions profile the default configuration
	// themselves.
	WarmStart         bool           `json:"warm_start,omitempty"`
	WarmMaxDistance   float64        `json:"warm_max_distance,omitempty"`
	Stats             *profile.Stats `json:"stats,omitempty"`
	DefaultRuntimeSec float64        `json:"default_runtime_sec,omitempty"`

	// Surrogate configures the BO/GBO response-surface model (kernel,
	// active-set budget, refit schedule).
	Surrogate *SurrogateSpec `json:"surrogate,omitempty"`
}

// ObserveRequest is the body of POST /v1/sessions/{id}/observe.
type ObserveRequest struct {
	Config     ConfigJSON     `json:"config"`
	RuntimeSec float64        `json:"runtime_sec"`
	Aborted    bool           `json:"aborted"`
	GCOverhead float64        `json:"gc_overhead,omitempty"`
	Stats      *profile.Stats `json:"stats,omitempty"`
}

// SuggestResponse is the body returned by POST /v1/sessions/{id}/suggest.
type SuggestResponse struct {
	Config ConfigJSON `json:"config"`
	Done   bool       `json:"done"`
}

// BestJSON is the wire form of a session's incumbent.
type BestJSON struct {
	Config     ConfigJSON `json:"config"`
	RuntimeSec float64    `json:"runtime_sec"`
	Objective  float64    `json:"objective"`
}

// StatusResponse is the wire form of a session status.
type StatusResponse struct {
	ID       string    `json:"id"`
	Node     string    `json:"node,omitempty"`
	Backend  string    `json:"backend"`
	Workload string    `json:"workload"`
	Cluster  string    `json:"cluster"`
	Mode     string    `json:"mode"`
	State    string    `json:"state"`
	Evals    int       `json:"evals"`
	Done     bool      `json:"done"`
	Best     *BestJSON `json:"best,omitempty"`
	Err      string    `json:"error,omitempty"`
	Created  time.Time `json:"created"`
	LastUsed time.Time `json:"last_used"`

	WarmStarted  bool    `json:"warm_started,omitempty"`
	WarmSource   string  `json:"warm_source,omitempty"`
	WarmDistance float64 `json:"warm_distance,omitempty"`

	// Surrogate is the resolved surrogate configuration and its work
	// counters (BO/GBO sessions only).
	Surrogate *SurrogateStatus `json:"surrogate,omitempty"`
}

// HistoryJSON is one recorded experiment on the wire. Suggested reports
// whether a suggestion was outstanding when the observation arrived — a
// replayer (fail-over promotion) re-issues Suggest exactly for those
// entries, reproducing the live suggest/observe interleaving.
type HistoryJSON struct {
	Config     ConfigJSON     `json:"config"`
	RuntimeSec float64        `json:"runtime_sec"`
	Objective  float64        `json:"objective"`
	Aborted    bool           `json:"aborted"`
	GCOverhead float64        `json:"gc_overhead,omitempty"`
	Stats      *profile.Stats `json:"stats,omitempty"`
	Suggested  bool           `json:"suggested,omitempty"`
}

// A scalar is one number (or flag) a node reports about itself, declared
// here once: its key in the GET /v1/metrics body, its series on GET /metrics
// ("" when it is not exported there), and how to read it off a Metrics
// snapshot. Both endpoints render from this list, so a counter cannot be
// added to one and forgotten on the other. Counters and gauges are
// top-level numerics of the JSON body on purpose: the router's metrics
// fan-out sums those cluster-wide (and must not sum a flag, so flags are
// booleans there).
type scalar struct {
	key, prom, help string
	kind            scalarKind
	// always keeps the key in /v1/metrics when the value is zero; the rest
	// are omitted until they have something to say.
	always bool
	// gate, when non-nil, reports whether the subsystem the scalar belongs
	// to (the store, the replica set) is attached at all; while it is not,
	// neither endpoint mentions the scalar.
	gate func(*Metrics) bool
	get  func(*Metrics) float64
}

type scalarKind int

const (
	counter scalarKind = iota // only ever grows
	gauge
	flag // gauge of 0 or 1; "true" in /v1/metrics
)

func persistent(mt *Metrics) bool  { return mt.Persistence }
func replicating(mt *Metrics) bool { return mt.Replication }

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

var scalars = []scalar{
	{"sessions", "relm_sessions", "Live sessions.", gauge, true, nil, func(mt *Metrics) float64 { return float64(mt.Sessions) }},
	{"observations", "relm_observations_total", "Recorded experiments (including replayed).", counter, true, nil, func(mt *Metrics) float64 { return float64(mt.Observations) }},
	{"evictions", "relm_evictions_total", "TTL session evictions.", counter, true, nil, func(mt *Metrics) float64 { return float64(mt.Evictions) }},
	{"warm_starts", "relm_warm_starts_total", "Repository-seeded sessions.", counter, true, nil, func(mt *Metrics) float64 { return float64(mt.WarmStarts) }},
	{"surrogate_fits", "relm_surrogate_fits_total", "Full surrogate hyperparameter selections.", counter, false, nil, func(mt *Metrics) float64 { return float64(mt.SurrogateFits) }},
	{"surrogate_appends", "relm_surrogate_appends_total", "O(n²) surrogate appends between hyperparameter selections.", counter, false, nil, func(mt *Metrics) float64 { return float64(mt.SurrogateAppends) }},
	{"surrogate_compactions", "relm_surrogate_compactions_total", "Surrogate evict-or-reject decisions at the active-set cap.", counter, false, nil, func(mt *Metrics) float64 { return float64(mt.SurrogateCompactions) }},
	{"repo_entries", "relm_repo_entries", "Model repository entries.", gauge, true, nil, func(mt *Metrics) float64 { return float64(mt.RepoEntries) }},
	{"repo_capacity", "", "", gauge, false, nil, func(mt *Metrics) float64 { return float64(mt.RepoCapacity) }},
	{"repo_hits", "relm_repo_hits_total", "Warm-start repository matches.", counter, false, nil, func(mt *Metrics) float64 { return float64(mt.RepoHits) }},
	{"repo_evictions", "relm_repo_evictions_total", "Repository capacity evictions.", counter, false, nil, func(mt *Metrics) float64 { return float64(mt.RepoEvictions) }},
	{"draining", "relm_draining", "1 while the node is draining.", flag, false, nil, func(mt *Metrics) float64 { return b2f(mt.Draining) }},

	{"wal_bytes", "relm_wal_bytes", "WAL size across segments.", gauge, false, persistent, func(mt *Metrics) float64 { return float64(mt.Store.WALBytes) }},
	{"wal_events", "relm_wal_events_total", "Events journaled to the WAL.", counter, false, persistent, func(mt *Metrics) float64 { return float64(mt.Store.WALEvents) }},
	{"wal_segments", "relm_wal_segments", "Live WAL segments.", gauge, false, persistent, func(mt *Metrics) float64 { return float64(mt.Store.Segments) }},
	{"pruned_segments", "relm_wal_pruned_segments_total", "Sealed segments deleted by compaction.", counter, false, persistent, func(mt *Metrics) float64 { return float64(mt.Store.PrunedSegments) }},
	{"commit_batches", "relm_wal_commit_batches_total", "Group-commit batches flushed.", counter, false, persistent, func(mt *Metrics) float64 { return float64(mt.Store.Batches) }},
	{"batched_events", "relm_wal_batched_events_total", "Records flushed through group commit.", counter, false, persistent, func(mt *Metrics) float64 { return float64(mt.Store.BatchedEvents) }},
	{"snapshots", "relm_snapshots_total", "Compacted snapshots written.", counter, false, persistent, func(mt *Metrics) float64 { return float64(mt.Store.Snapshots) }},
	{"snapshot_bytes", "relm_snapshot_bytes", "Latest snapshot size.", gauge, false, persistent, func(mt *Metrics) float64 { return float64(mt.Store.SnapshotBytes) }},
	// What the checkpoint trigger weighs, summed over the process's life:
	// the second over the first is the checkpoint write amplification.
	{"wal_appended_bytes", "relm_wal_appended_bytes_total", "Log bytes appended by this process.", counter, false, persistent, func(mt *Metrics) float64 { return float64(mt.Store.AppendedBytes) }},
	{"snapshot_bytes_written", "relm_snapshot_bytes_written_total", "Snapshot bytes written by this process, all compactions.", counter, false, persistent, func(mt *Metrics) float64 { return float64(mt.Store.SnapshotBytesWritten) }},
	// A write-ahead log that hit an unrecoverable write/fsync failure and
	// flipped read-only; the node refuses writes with retriable 503s until
	// it is restarted on healthy storage.
	{"wal_degraded", "relm_wal_degraded", "1 while the WAL is degraded (read-only).", flag, false, persistent, func(mt *Metrics) float64 { return b2f(mt.Store.Degraded) }},

	{"replica_followers", "relm_replica_followers", "Configured ship targets.", gauge, false, replicating, func(mt *Metrics) float64 { return float64(mt.Replica.Followers) }},
	{"replica_segments_behind", "relm_replica_segments_behind", "Segments with unshipped bytes across followers.", gauge, false, replicating, func(mt *Metrics) float64 { return float64(mt.Replica.SegmentsBehind) }},
	{"replica_bytes_behind", "relm_replica_bytes_behind", "Unshipped WAL bytes across followers.", gauge, false, replicating, func(mt *Metrics) float64 { return float64(mt.Replica.BytesBehind) }},
	{"replica_last_ack_age_sec", "", "", gauge, false, replicating, func(mt *Metrics) float64 { return mt.Replica.LastAckAgeSec }},
	{"replica_ships", "relm_replica_ships_total", "Acknowledged ship requests.", counter, false, replicating, func(mt *Metrics) float64 { return float64(mt.Replica.Ships) }},
	{"replica_ship_errors", "relm_replica_ship_errors_total", "Failed ship requests.", counter, false, replicating, func(mt *Metrics) float64 { return float64(mt.Replica.ShipErrors) }},
	{"replica_primaries", "relm_replica_primaries", "Primaries this node holds replicas for.", gauge, false, replicating, func(mt *Metrics) float64 { return float64(mt.Replica.Primaries) }},
	{"replica_ingests", "relm_replica_ingests_total", "Replica ingest appends.", counter, false, replicating, func(mt *Metrics) float64 { return float64(mt.Replica.Ingests) }},
	{"replica_ingest_bytes", "relm_replica_ingest_bytes_total", "Replica bytes ingested.", counter, false, replicating, func(mt *Metrics) float64 { return float64(mt.Replica.IngestBytes) }},
	{"replica_promotions", "relm_replica_promotions_total", "Replicas promoted on this node.", counter, false, replicating, func(mt *Metrics) float64 { return float64(mt.Replica.Promotions) }},
}

// metricsBody renders a Metrics snapshot as the body of GET /v1/metrics:
// the scalars, then what is not a number — identity, the per-state session
// counts, failure reasons, and the per-stage latency digests (stages) beside
// the raw bucket arrays (stage_hist) the router merges bucket-wise into
// cluster-exact percentiles.
func metricsBody(mt *Metrics) map[string]any {
	body := map[string]any{"sessions_by_state": mt.SessionsByState, "persistence": mt.Persistence}
	for _, sc := range scalars {
		if sc.gate != nil && !sc.gate(mt) {
			continue
		}
		switch v := sc.get(mt); {
		case v == 0 && !sc.always:
		case sc.kind == flag:
			body[sc.key] = true
		default:
			body[sc.key] = v
		}
	}
	if mt.Node != "" {
		body["node"] = mt.Node
	}
	if mt.Replication {
		body["replication"] = true
	}
	if mt.JournalError != "" {
		body["journal_error"] = mt.JournalError
	}
	if mt.Persistence && mt.Store.DegradedReason != "" {
		body["wal_degraded_reason"] = mt.Store.DegradedReason
	}
	if mt.Persistence && !mt.Store.LastCompaction.IsZero() {
		body["last_compaction"] = mt.Store.LastCompaction
	}
	if len(mt.Stages) > 0 {
		sums := make(map[string]obs.Summary, len(mt.Stages))
		hists := make(map[string]StageHistJSON, len(mt.Stages))
		for name, snap := range mt.Stages {
			sums[name] = snap.Summarize()
			hists[name] = snap.JSON()
		}
		body["stages"], body["stage_hist"] = sums, hists
	}
	return body
}

// StageHistJSON is the mergeable wire form of one stage histogram: the
// full power-of-two bucket array plus count/sum (obs.HistJSON). Adding
// two of these bucket-wise is exact, so cluster-wide percentiles need no
// approximation beyond the buckets themselves.
type StageHistJSON = obs.HistJSON

// RepoExportResponse is the body of GET /v1/repository/export — the full
// repository entries, prior points included — and, POSTed to
// /v1/repository/import, the body another node merges.
type RepoExportResponse struct {
	Models []bo.RepoEntry `json:"models"`
}

// RepoImportResponse is the body returned by POST /v1/repository/import.
type RepoImportResponse struct {
	Imported int `json:"imported"`
}

func toStatusResponse(st Status) StatusResponse {
	resp := StatusResponse{
		ID:       st.ID,
		Node:     st.Node,
		Backend:  st.Backend,
		Workload: st.Workload,
		Cluster:  st.Cluster,
		Mode:     st.Mode,
		State:    st.State,
		Evals:    st.Evals,
		Done:     st.Done,
		Err:      st.Err,
		Created:  st.Created,
		LastUsed: st.LastUsed,
	}
	resp.WarmStarted = st.WarmStarted
	resp.WarmSource = st.WarmSource
	resp.WarmDistance = st.WarmDistance
	resp.Surrogate = st.Surrogate
	if st.Best != nil {
		resp.Best = &BestJSON{
			Config:     toConfigJSON(st.Best.Config),
			RuntimeSec: st.Best.RuntimeSec,
			Objective:  st.Best.Objective,
		}
	}
	return resp
}

// errorJSON is the uniform error body.
type errorJSON struct {
	Error string `json:"error"`
}

// NewHandler exposes a Manager over the JSON API:
//
//	POST   /v1/sessions               create a session
//	GET    /v1/sessions               list sessions
//	GET    /v1/sessions/{id}          session status (incl. best)
//	POST   /v1/sessions/{id}/suggest  next configuration to measure
//	POST   /v1/sessions/{id}/observe  report one measurement
//	GET    /v1/sessions/{id}/history  recorded experiments
//	DELETE /v1/sessions/{id}          close the session (idempotent)
//	GET    /v1/metrics                service + store observability counters, stage digests, raw stage buckets
//	GET    /metrics                   the same in Prometheus text exposition format (scrape target)
//	GET    /v1/traces                 recent request traces with timed spans (?id= for one, ?limit= to cap)
//	GET    /v1/repository             model-repository inspection (entries, fingerprints, hit/evict counters)
//	GET    /v1/repository/export      full repository entries, prior points included
//	POST   /v1/repository/import      merge another node's exported entries (idempotent)
//	POST   /v1/drain                  take the node out of service; returns the HandoffReport
//	POST   /v1/handoff/adopt          install one handed-over session (a store.SessionSnapshot); node-internal
//	GET    /v1/replica/status         replication status (shipper + ingest sides); ?primary= filters
//	POST   /v1/replica/segments       ingest one segment chunk (?primary=&segment=&offset=&min=)
//	POST   /v1/replica/snapshot       ingest a snapshot (?primary=&hash=)
//	POST   /v1/replica/promote        fence + replay a dead primary's replica; returns the HandoffReport
//	GET    /healthz                   liveness + node identity + draining flag
//
// Three of these are mounted here but served by the package that owns their
// protocol: /v1/traces by obs ((*Tracer).Handler, beside the ring it reads),
// /v1/replica/{status,segments,snapshot} by replica (Handler, the other end
// of its shipper) and /v1/faults by fault (Handler). /v1/replica/promote
// stays here: it replays the fenced replica into a hand-over.
func NewHandler(m *Manager) http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("POST /v1/sessions", func(w http.ResponseWriter, r *http.Request) {
		var req CreateRequest
		if !decodeJSON(w, r, &req) {
			return
		}
		spec := Spec{
			ID:                req.ID,
			Backend:           req.Backend,
			Workload:          req.Workload,
			Cluster:           req.Cluster,
			Mode:              req.Mode,
			Seed:              req.Seed,
			MaxIterations:     req.MaxIterations,
			MaxSteps:          req.MaxSteps,
			WarmStart:         req.WarmStart,
			WarmMaxDistance:   req.WarmMaxDistance,
			Stats:             req.Stats,
			DefaultRuntimeSec: req.DefaultRuntimeSec,
		}
		if req.Surrogate != nil {
			spec.Surrogate = *req.Surrogate
		}
		spanStart := time.Now()
		st, err := m.Create(spec)
		obs.TraceFrom(r.Context()).AddSpan("service.create", spanStart)
		if err != nil {
			writeError(w, err)
			return
		}
		wire.WriteJSON(w, http.StatusCreated, toStatusResponse(st))
	})

	mux.HandleFunc("GET /v1/sessions", func(w http.ResponseWriter, r *http.Request) {
		all := m.List()
		out := make([]StatusResponse, 0, len(all))
		for _, st := range all {
			out = append(out, toStatusResponse(st))
		}
		wire.WriteJSON(w, http.StatusOK, out)
	})

	mux.HandleFunc("GET /v1/sessions/{id}", func(w http.ResponseWriter, r *http.Request) {
		st, err := m.Get(r.PathValue("id"))
		if err != nil {
			writeError(w, err)
			return
		}
		wire.WriteJSON(w, http.StatusOK, toStatusResponse(st))
	})

	mux.HandleFunc("POST /v1/sessions/{id}/suggest", func(w http.ResponseWriter, r *http.Request) {
		spanStart := time.Now()
		cfg, done, err := m.Suggest(r.PathValue("id"))
		obs.TraceFrom(r.Context()).AddSpan("service.suggest", spanStart)
		if err != nil {
			writeError(w, err)
			return
		}
		wire.WriteJSON(w, http.StatusOK, SuggestResponse{Config: toConfigJSON(cfg), Done: done})
	})

	mux.HandleFunc("POST /v1/sessions/{id}/observe", func(w http.ResponseWriter, r *http.Request) {
		var req ObserveRequest
		if !decodeJSON(w, r, &req) {
			return
		}
		spanStart := time.Now()
		st, err := m.Observe(r.PathValue("id"), Observation{
			Config:     req.Config.toConfig(),
			RuntimeSec: req.RuntimeSec,
			Aborted:    req.Aborted,
			GCOverhead: req.GCOverhead,
			Stats:      req.Stats,
		})
		obs.TraceFrom(r.Context()).AddSpan("service.observe", spanStart)
		if err != nil {
			writeError(w, err)
			return
		}
		wire.WriteJSON(w, http.StatusOK, toStatusResponse(st))
	})

	mux.HandleFunc("GET /v1/sessions/{id}/history", func(w http.ResponseWriter, r *http.Request) {
		hist, err := m.History(r.PathValue("id"))
		if err != nil {
			writeError(w, err)
			return
		}
		out := make([]HistoryJSON, 0, len(hist))
		for _, h := range hist {
			out = append(out, HistoryJSON{
				Config:     toConfigJSON(h.Config),
				RuntimeSec: h.RuntimeSec,
				Objective:  h.Objective,
				Aborted:    h.Aborted,
				GCOverhead: h.GCOverhead,
				Stats:      h.Stats,
				Suggested:  h.Suggested,
			})
		}
		wire.WriteJSON(w, http.StatusOK, out)
	})

	mux.HandleFunc("GET /v1/metrics", func(w http.ResponseWriter, r *http.Request) {
		mt := m.Metrics()
		wire.WriteJSON(w, http.StatusOK, metricsBody(&mt))
	})

	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		writePromMetrics(w, m.Metrics())
	})

	mux.Handle("GET /v1/traces", m.Tracer().Handler(m.NodeID()))

	mux.HandleFunc("GET /v1/repository", func(w http.ResponseWriter, r *http.Request) {
		wire.WriteJSON(w, http.StatusOK, m.RepositoryReport())
	})

	mux.HandleFunc("DELETE /v1/sessions/{id}", func(w http.ResponseWriter, r *http.Request) {
		if err := m.CloseSession(r.PathValue("id")); err != nil {
			writeError(w, err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})

	mux.HandleFunc("POST /v1/drain", func(w http.ResponseWriter, r *http.Request) {
		wire.WriteJSON(w, http.StatusOK, m.Drain())
	})

	mux.HandleFunc("POST /v1/handoff/adopt", func(w http.ResponseWriter, r *http.Request) {
		var ss store.SessionSnapshot
		// A snapshot carries a whole history and possibly a warm start's
		// prior points; same allowance as a repository import.
		if !decodeJSONLimit(w, r, &ss, 64<<20) {
			return
		}
		st, err := m.Adopt(ss)
		if err != nil {
			writeError(w, err)
			return
		}
		wire.WriteJSON(w, http.StatusCreated, toStatusResponse(st))
	})

	mux.HandleFunc("GET /v1/repository/export", func(w http.ResponseWriter, r *http.Request) {
		repo := m.Repository()
		wire.WriteJSON(w, http.StatusOK, RepoExportResponse{Models: repo.Entries})
	})

	mux.HandleFunc("POST /v1/repository/import", func(w http.ResponseWriter, r *http.Request) {
		var req RepoExportResponse
		// Entries carry whole prior-point sets; allow a larger body than
		// the per-session endpoints.
		if !decodeJSONLimit(w, r, &req, 64<<20) {
			return
		}
		wire.WriteJSON(w, http.StatusOK, RepoImportResponse{Imported: m.ImportRepository(req.Models)})
	})

	// Replication's follower half is served by the package that ships to it;
	// the exact patterns keep every other path under /v1/replica/ this mux's.
	follower := replica.Handler(m.ReplicaSet(), m.NodeID())
	mux.Handle("GET /v1/replica/status", follower)
	mux.Handle("POST /v1/replica/segments", follower)
	mux.Handle("POST /v1/replica/snapshot", follower)

	mux.HandleFunc("POST /v1/replica/promote", func(w http.ResponseWriter, r *http.Request) {
		set := m.ReplicaSet()
		if set == nil {
			http.Error(w, "replication not configured", http.StatusServiceUnavailable)
			return
		}
		var req struct {
			Primary string `json:"primary"`
		}
		if !decodeJSON(w, r, &req) {
			return
		}
		dir, err := set.Promote(req.Primary)
		if err != nil {
			if errors.Is(err, replica.ErrNoReplica) {
				http.Error(w, err.Error(), http.StatusNotFound)
				return
			}
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		rep, err := ExtractHandoff(dir, req.Primary)
		if err != nil {
			// Promotion replay failing (e.g. a corrupt sealed replica
			// segment) must be loud, not a silent empty hand-off.
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		wire.WriteJSON(w, http.StatusOK, rep)
	})

	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		resp := map[string]any{"ok": true, "sessions": m.Len()}
		if id := m.NodeID(); id != "" {
			resp["node"] = id
		}
		if adv := m.Advertise(); adv != "" {
			resp["advertise"] = adv
		}
		if m.Draining() {
			resp["draining"] = true
		}
		code := http.StatusOK
		if reason, degraded := m.StoreDegraded(); degraded {
			// A degraded WAL cannot ack writes, so the node reports
			// unhealthy: the router stops routing to it and, with
			// replication, promotes a follower's replica — the same
			// recovery path as a crash, minus the data loss.
			resp["ok"] = false
			resp["degraded"] = reason
			code = http.StatusServiceUnavailable
		}
		wire.WriteJSON(w, code, resp)
	})

	// Fault-injection control (internal/fault): inspect, arm, or disarm
	// the process's failpoint schedule.
	mux.Handle("/v1/faults", fault.Handler())

	// The tracer middleware wraps the whole API, so every request — the
	// session lifecycle, replica ingest from a shipping primary, even
	// health checks — carries a trace in its context, echoes its ID in
	// X-Relm-Trace, and lands in the /v1/traces ring.
	return m.Tracer().Middleware(mux)
}

// TracesResponse is the body of GET /v1/traces (obs.TracesResponse).
type TracesResponse = obs.TracesResponse

// writePromMetrics renders a Metrics snapshot in the Prometheus text
// exposition format: the scalars, the per-state session gauge, and every
// stage histogram as cumulative buckets.
func writePromMetrics(w io.Writer, mt Metrics) {
	p := obs.NewPromWriter(w)
	for _, sc := range scalars {
		switch {
		case sc.prom == "" || (sc.gate != nil && !sc.gate(&mt)):
		case sc.kind == counter:
			p.Counter(sc.prom, sc.help, sc.get(&mt))
		default:
			p.Gauge(sc.prom, sc.help, sc.get(&mt))
		}
	}
	for state, n := range mt.SessionsByState {
		p.Gauge("relm_sessions_by_state", "Live sessions by state.", float64(n), "state", state)
	}
	p.StageHistograms("relm_stage_latency_seconds", "Per-stage latency distribution.", mt.Stages)
}

func decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	return decodeJSONLimit(w, r, v, 1<<20)
}

func decodeJSONLimit(w http.ResponseWriter, r *http.Request, v any, limit int64) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		wire.WriteJSON(w, http.StatusBadRequest, errorJSON{Error: "bad request body: " + err.Error()})
		return false
	}
	return true
}

func writeError(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	switch {
	case errors.Is(err, ErrNotFound):
		code = http.StatusNotFound
	case errors.Is(err, ErrClosed):
		code = http.StatusGone
	case errors.Is(err, ErrBusy), errors.Is(err, ErrTooMany):
		code = http.StatusTooManyRequests
	case errors.Is(err, ErrExists):
		code = http.StatusConflict
	case errors.Is(err, ErrManagerDown), errors.Is(err, ErrDraining):
		code = http.StatusServiceUnavailable
	case errors.Is(err, ErrJournal), errors.Is(err, store.ErrDegraded), errors.Is(err, fault.ErrInjected):
		// Store append/fsync failures (and injected faults) refused the
		// operation before mutating anything: the request is retriable —
		// here after the fault clears, or on another node via the router's
		// next-candidate walk. Retry-After marks it as such.
		w.Header().Set("Retry-After", "1")
		code = http.StatusServiceUnavailable
	default:
		code = http.StatusBadRequest
	}
	wire.WriteJSON(w, code, errorJSON{Error: err.Error()})
}
