// Package store is the durable knowledge store of the tuning service: an
// append-only JSONL write-ahead log of session events plus periodic
// compacted snapshots. The service journals every state transition
// (create / observe / close / harvest; a suggestion changes no state, and
// the suggest records of old logs are skipped on replay); on startup it
// loads the latest snapshot and replays the remaining log, rebuilding
// every open session's tuner by re-observing its history. Because replayed
// events are idempotent (observations carry a per-session ordinal), the
// log may safely overlap the snapshot — compaction never needs to stop
// the world, and a crash between snapshot and log truncation loses
// nothing.
//
// On top of the same log, the store carries the shared bo.Repository of
// completed sessions (the paper's §6.6 model re-use): harvest events
// append one repository entry each, and the snapshot folds them in. A
// local harvest record says only which session was harvested and when —
// its entry is inherited from the history the log already holds before
// it; an import's record (and an old log's local one) carries the entry.
//
// Two implementations are provided: File (a directory holding
// snapshot.json and a segmented log, wal-000001.jsonl, wal-000002.jsonl, …)
// and Mem (tests, ephemeral servers). The file log rotates segments at a
// byte threshold, so compaction only ever deletes whole sealed segments —
// it never rewrites log data — and, with SyncEachAppend, group-commits
// concurrent appends into shared fsync batches (see groupcommit.go).
// Recovery decodes the log once: OpenFile reads each segment whole and
// decodes its records across the cores, and keeps what it decoded for
// the first Load, which costs no second read. Every record a current
// node writes, and snapshot.json, are read in the exact layout
// json.Marshal writes them, without encoding/json; any other input goes to
// json.Unmarshal, so either way it decodes to the same Event or Snapshot
// (decode.go). The writer is json.Marshal, unchanged.
package store

import (
	"time"

	"relm/internal/bo"
	"relm/internal/conf"
	"relm/internal/profile"
)

// Event types journaled to the WAL. A session enters the log as one create
// record carrying its SessionSnapshot, however it arrived, and a warm start
// rides on the record that applied it. Older logs spell an admission as
// create{Spec}, warm, observe…, suggest: replay still reads them, but no
// warm record is written any more. Nor is a suggest record: old logs
// carry one per suggestion handed out, and replay ignores them.
const (
	EventCreate  = "create"  // a session was admitted (payload: Session; old logs: Spec)
	EventWarm    = "warm"    // old logs only: a warm start (payload: Warm)
	EventObserve = "observe" // one measured experiment (payload: Obs, ordinal N; a fingerprinting run's Warm)
	EventClose   = "close"   // tombstone: closed by the client or evicted by TTL
	EventHarvest = "harvest" // a completed session fed the model repository (payload: Repo on imports and old logs only)
)

// SessionSpec describes one tuning session to create — aliased as
// service.Spec — and is the durable form of that request: a create record
// journals it inside the SessionSnapshot. Zero fields are left out of the
// record, so a session on the defaults journals only what was asked.
// Records from older builds may also carry a `surrogate` object (a kernel,
// a refit schedule, a budget); decoding drops it, and the session replays
// onto the one surrogate every BO and GBO session runs.
type SessionSpec struct {
	// ID optionally assigns the session's ID instead of the manager's
	// "sess-N" counter. A cluster router uses it to place sessions by
	// consistent hashing: the routing key must be known before the session
	// exists, so the router mints the ID and every node honours it.
	// Creating an ID the manager has already seen (live or tombstoned)
	// fails with ErrExists; the manager's own counter namespace
	// ("sess-N", node-prefixed when NodeID is set) is reserved and
	// rejected outright. Same character set as Options.NodeID. Not
	// journaled here: the session record carries the ID.
	ID string `json:"-"`
	// Backend selects the policy: "relm" (default), "bo", "gbo", or "ddpg".
	Backend string `json:"backend,omitempty"`
	// Workload is a Table 2 / TPC-H workload name (default "PageRank").
	Workload string `json:"workload,omitempty"`
	// Cluster is "A" (default) or "B".
	Cluster string `json:"cluster,omitempty"`
	// Mode is "remote" (default) or "auto".
	Mode string `json:"mode,omitempty"`
	// Seed drives the policy's stochastic choices and, in auto mode, the
	// simulator.
	Seed uint64 `json:"seed,omitempty"`
	// MaxIterations caps BO/GBO adaptive samples (0 = paper default).
	MaxIterations int `json:"max_iterations,omitempty"`
	// MaxSteps caps DDPG steps (0 = paper default).
	MaxSteps int `json:"max_steps,omitempty"`

	// WarmStart asks the Manager to match this session's workload
	// fingerprint against the shared model repository and, on a hit,
	// warm-start the optimizer with the matched session's observations
	// (§6.6 model re-use; BO and GBO backends only). Remote sessions
	// supply the fingerprint via Stats; auto sessions profile the default
	// configuration on the simulator as their first experiment.
	WarmStart bool `json:"warm_start,omitempty"`
	// WarmMaxDistance overrides the Manager's fingerprint-distance
	// threshold for this session (0 = manager default).
	WarmMaxDistance float64 `json:"warm_max_distance,omitempty"`
	// Stats is the session's workload fingerprint: the Table 6 statistics
	// of a default-configuration run, measured by the client. Used for
	// warm-start matching of remote sessions and as the harvest
	// fingerprint when the session completes.
	Stats *profile.Stats `json:"stats,omitempty"`
	// DefaultRuntimeSec is the default-configuration runtime matching
	// Stats; matched prior observations are rescaled by the ratio of
	// default runtimes before seeding the optimizer.
	DefaultRuntimeSec float64 `json:"default_sec,omitempty"`
}

// Observation is the durable form of one measured experiment. Objectives
// are not stored: the abort-penalty watermark replays deterministically
// from the (runtime, aborted) sequence. Stats carry the Table 6 statistics
// (client-reported or simulator-derived) so white-box tuners rebuild their
// guide models on replay; GCOverhead feeds the DDPG state vector.
type Observation struct {
	Config     conf.Config    `json:"config"`
	RuntimeSec float64        `json:"runtime_sec"`
	Aborted    bool           `json:"aborted,omitempty"`
	GCOverhead float64        `json:"gc_overhead,omitempty"`
	Stats      *profile.Stats `json:"stats,omitempty"`
}

// Warm records a warm start as applied: the matched repository entry's
// provenance and the rescaled prior points seeded into the optimizer.
// Replay re-applies the recorded points rather than re-matching, so a
// restored session is warm-started identically even if the repository has
// since grown.
type Warm struct {
	Source   string          `json:"source"`   // matched entry's workload name
	Cluster  string          `json:"cluster"`  // matched entry's cluster
	Distance float64         `json:"distance"` // fingerprint distance of the match
	Points   []bo.PriorPoint `json:"points"`   // rescaled prior observations
}

// Event is one WAL record. Seq is assigned by the store on Append and is
// strictly increasing within one log.
type Event struct {
	Seq  uint64    `json:"seq"`
	Type string    `json:"type"`
	ID   string    `json:"id,omitempty"` // session ID
	Time time.Time `json:"time,omitempty"`

	Session *SessionSnapshot `json:"session,omitempty"` // create: the admitted session
	Spec    *SessionSpec     `json:"spec,omitempty"`    // create, old logs only
	N       int              `json:"n,omitempty"`       // observe: per-session ordinal (0-based)
	Obs     *Observation     `json:"obs,omitempty"`     // observe
	Warm    *Warm            `json:"warm,omitempty"`    // observe (a fingerprinting run's match); warm, old logs
	Repo    *bo.RepoEntry    `json:"repo,omitempty"`    // harvest: an import's entry; old logs' local harvests too
}

// HistoryRecord is one recorded experiment of a session: its Observation —
// the replayable part, what an observe event journals — plus the objective
// the abort-penalty watermark assigned it.
type HistoryRecord struct {
	Observation
	Objective float64 `json:"objective"`
}

// SessionSnapshot is the complete state of one live session and the single
// hand-over unit: a create record journals it, compaction writes it to
// snapshot.json, a draining node and a promoted replica send it to the
// session's next owner, and every one of them rebuilds the tuner from it
// the same way (replaying History).
type SessionSnapshot struct {
	ID        string          `json:"id"`
	Spec      SessionSpec     `json:"spec"`
	State     string          `json:"state"`
	Created   time.Time       `json:"created"`
	LastUsed  time.Time       `json:"last_used"`
	Warm      *Warm           `json:"warm,omitempty"`
	Harvested bool            `json:"harvested,omitempty"`
	History   []HistoryRecord `json:"history,omitempty"`
}

// Snapshot is a compacted point-in-time image of the whole service: every
// live session, the tombstone set, and the shared model repository.
type Snapshot struct {
	TakenAt   time.Time         `json:"taken_at"`
	Fence     uint64            `json:"fence"`   // highest seq surely included
	NextID    uint64            `json:"next_id"` // session-ID counter watermark
	Sessions  []SessionSnapshot `json:"sessions,omitempty"`
	Closed    []string          `json:"closed,omitempty"`    // tombstoned session IDs
	Harvested []string          `json:"harvested,omitempty"` // sessions already in Repo
	Repo      *bo.Repository    `json:"repo,omitempty"`
	// Evictions, Observations, and WarmStarts carry the lifetime counters
	// across restarts (events replayed from the log add on top).
	Evictions    int64 `json:"evictions,omitempty"`
	Observations int64 `json:"observations,omitempty"`
	WarmStarts   int64 `json:"warm_starts,omitempty"`
	// RepoHits and RepoEvictions carry the repository lifecycle counters
	// (warm-start matches served, entries evicted past capacity).
	RepoHits      int64 `json:"repo_hits,omitempty"`
	RepoEvictions int64 `json:"repo_evictions,omitempty"`
}

// Metrics reports the store's observability counters.
type Metrics struct {
	WALBytes       int64     `json:"wal_bytes"`       // size of the live log, all segments
	WALEvents      uint64    `json:"wal_events"`      // events in the live log, all segments
	Seq            uint64    `json:"seq"`             // last assigned sequence number
	Segments       int       `json:"segments"`        // live log segments (sealed + active)
	PrunedSegments uint64    `json:"pruned_segments"` // sealed segments deleted by compaction (this process)
	Batches        uint64    `json:"batches"`         // group-commit batches flushed (this process)
	BatchedEvents  uint64    `json:"batched_events"`  // events flushed through group commit (this process)
	Snapshots      uint64    `json:"snapshots"`       // compactions taken (this process)
	LastCompaction time.Time `json:"last_compaction"` // zero if never compacted
	SnapshotBytes  int64     `json:"snapshot_bytes"`  // size of the last snapshot
	// AppendedBytes and SnapshotBytesWritten are what the log and its
	// checkpoints have cost in writes: every log byte appended and every
	// snapshot byte written by this process. Neither ever decreases —
	// WALBytes shrinks when compaction prunes, SnapshotBytes is one
	// snapshot — so their growth between two readings is the write volume
	// in between, and their ratio the checkpoint write amplification.
	AppendedBytes        int64 `json:"appended_bytes"`
	SnapshotBytesWritten int64 `json:"snapshot_bytes_written"`
	// Degraded reports a WAL that hit an unrecoverable write/fsync failure
	// and flipped read-only (see ErrDegraded); DegradedReason is the first
	// failure that tripped it.
	Degraded       bool   `json:"degraded,omitempty"`
	DegradedReason string `json:"degraded_reason,omitempty"`
}

// Store is the durable session log. Implementations are safe for
// concurrent use.
type Store interface {
	// Append journals one event, assigning and returning its sequence
	// number (the event's Seq field is filled in).
	Append(ev *Event) (uint64, error)
	// Seq returns the last assigned sequence number.
	Seq() uint64
	// Load returns the latest snapshot (nil if none) and every event in
	// the live log, in append order. Events already folded into the
	// snapshot may appear again; replay is expected to be idempotent.
	// File's first Load after OpenFile, when nothing was appended or
	// compacted in between, returns what the open decoded: it costs no
	// second read of the directory.
	Load() (*Snapshot, []Event, error)
	// Compact persists a snapshot and prunes log events with seq <=
	// snap.Fence (they are folded into the snapshot) where pruning is
	// cheap: File deletes whole sealed segments and never rewrites log
	// data, so pre-fence events in surviving segments may reappear on
	// Load — replay is idempotent by contract. Events past the fence are
	// always retained.
	Compact(snap *Snapshot) error
	// Metrics reports log size and compaction counters.
	Metrics() Metrics
	// Close releases resources. Appending after Close is an error.
	Close() error
}
