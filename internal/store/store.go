// Package store is the durable knowledge store of the tuning service: an
// append-only JSONL write-ahead log of session events plus periodic
// compacted snapshots. The service journals every state transition
// (create / warm / suggest / observe / close / harvest); on startup it
// loads the latest snapshot and replays the remaining log, rebuilding
// every open session's tuner by re-observing its history. Because replayed
// events are idempotent (observations carry a per-session ordinal), the
// log may safely overlap the snapshot — compaction never needs to stop
// the world, and a crash between snapshot and log truncation loses
// nothing.
//
// On top of the same log, the store carries the shared bo.Repository of
// completed sessions (the paper's §6.6 model re-use): harvest events
// append one repository entry each, and the snapshot folds them in.
//
// Two implementations are provided: File (a directory holding
// snapshot.json and a segmented log, wal-000001.jsonl, wal-000002.jsonl, …)
// and Mem (tests, ephemeral servers). The file log rotates segments at a
// byte threshold, so compaction only ever deletes whole sealed segments —
// it never rewrites log data — and, with SyncEachAppend, group-commits
// concurrent appends into shared fsync batches (see groupcommit.go).
package store

import (
	"time"

	"relm/internal/bo"
	"relm/internal/conf"
	"relm/internal/profile"
)

// Event types journaled to the WAL.
const (
	EventCreate  = "create"  // a session was opened (payload: Spec)
	EventWarm    = "warm"    // a session was warm-started (payload: Warm)
	EventSuggest = "suggest" // a suggestion was handed out (refreshes LastUsed)
	EventObserve = "observe" // one measured experiment (payload: Obs, ordinal N)
	EventClose   = "close"   // tombstone: closed by the client or evicted by TTL
	EventHarvest = "harvest" // a completed session fed the model repository
)

// SurrogateSpec configures a session's surrogate model (BO and GBO
// backends; ignored by relm and ddpg): the durable form, and — aliased as
// service.SurrogateSpec — the `surrogate` JSON object on the HTTP wire.
type SurrogateSpec struct {
	// Kernel selects the kernel family: "rbf" (default) or "matern52".
	Kernel string `json:"kernel,omitempty"`
	// Budget caps the GP's active set at this many points; the GP is exact
	// below the cap. Anything but a positive value means the default
	// (gp.DefaultSparseBudget, 256).
	Budget int `json:"budget,omitempty"`
	// RefitEvery throttles hyperparameter re-selection to once per this
	// many observations (0 = paper default of 8).
	RefitEvery int `json:"refit_every,omitempty"`
	// RefitDrift re-selects early on per-point log-marginal-likelihood
	// drift (0 = default 0.25; negative disables).
	RefitDrift float64 `json:"refit_drift,omitempty"`
}

// SessionSpec is the durable form of a session's creation request. It
// mirrors service.Spec field for field; the store keeps its own copy so the
// on-disk schema does not depend on the service package.
type SessionSpec struct {
	Backend         string         `json:"backend,omitempty"`
	Workload        string         `json:"workload,omitempty"`
	Cluster         string         `json:"cluster,omitempty"`
	Mode            string         `json:"mode,omitempty"`
	Seed            uint64         `json:"seed,omitempty"`
	MaxIterations   int            `json:"max_iterations,omitempty"`
	MaxSteps        int            `json:"max_steps,omitempty"`
	WarmStart       bool           `json:"warm_start,omitempty"`
	WarmMaxDistance float64        `json:"warm_max_distance,omitempty"`
	Stats           *profile.Stats `json:"stats,omitempty"`
	DefaultSec      float64        `json:"default_sec,omitempty"`
	// Surrogate is nil for sessions created before the field existed (and
	// for non-BO backends), keeping old logs replayable byte-for-byte.
	Surrogate *SurrogateSpec `json:"surrogate,omitempty"`
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
	// Suggested records whether a suggestion was outstanding when the
	// observation arrived. Replay re-issues Suggest exactly for those
	// observations, reproducing the live suggest/observe interleaving —
	// which the DDPG tuner's solicited/unsolicited branches depend on.
	Suggested bool `json:"suggested,omitempty"`
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

	Spec *SessionSpec  `json:"spec,omitempty"` // create
	N    int           `json:"n,omitempty"`    // observe: per-session ordinal (0-based)
	Obs  *Observation  `json:"obs,omitempty"`  // observe
	Warm *Warm         `json:"warm,omitempty"` // warm
	Repo *bo.RepoEntry `json:"repo,omitempty"` // harvest
}

// HistoryRecord is one recorded experiment of a session: its Observation —
// the replayable part, what an observe event journals — plus the objective
// the abort-penalty watermark assigned it.
type HistoryRecord struct {
	Observation
	Objective float64 `json:"objective"`
}

// SessionSnapshot is the complete state of one live session and the single
// hand-over unit: compaction writes it to snapshot.json, a draining node and
// a promoted replica send it to the session's next owner, and every one of
// them rebuilds the tuner from it the same way (replaying History).
type SessionSnapshot struct {
	ID        string          `json:"id"`
	Spec      SessionSpec     `json:"spec"`
	State     string          `json:"state"`
	Created   time.Time       `json:"created"`
	LastUsed  time.Time       `json:"last_used"`
	Warm      *Warm           `json:"warm,omitempty"`
	Harvested bool            `json:"harvested,omitempty"`
	History   []HistoryRecord `json:"history,omitempty"`
	// Suggested reports a suggestion outstanding after the last history
	// entry; the rebuilt tuner is re-armed so the next observation takes
	// the solicited branch it would have taken live.
	Suggested bool `json:"suggested,omitempty"`
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
