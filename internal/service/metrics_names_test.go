package service

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"relm/internal/obs"
	"relm/internal/replica"
	"relm/internal/store"
)

// The names a node publishes are an interface: dashboards, alert rules, the
// router's fan-out and scripts/cluster_e2e.sh's jq paths all key on them.
// These lists were captured from the last commit that declared every counter
// three times over (a MetricsResponse field, a line in the /v1/metrics
// handler, a line in writePromMetrics); rendering both endpoints from the one
// scalars table must not have moved any of them.

// promNames is every "# HELP" and "# TYPE" line of GET /metrics on a
// persistent, replicating node with a live session, sorted.
const promNames = `# HELP relm_draining 1 while the node is draining.
# HELP relm_evictions_total TTL session evictions.
# HELP relm_observations_total Recorded experiments (including replayed).
# HELP relm_replica_bytes_behind Unshipped WAL bytes across followers.
# HELP relm_replica_followers Configured ship targets.
# HELP relm_replica_ingest_bytes_total Replica bytes ingested.
# HELP relm_replica_ingests_total Replica ingest appends.
# HELP relm_replica_primaries Primaries this node holds replicas for.
# HELP relm_replica_promotions_total Replicas promoted on this node.
# HELP relm_replica_segments_behind Segments with unshipped bytes across followers.
# HELP relm_replica_ship_errors_total Failed ship requests.
# HELP relm_replica_ships_total Acknowledged ship requests.
# HELP relm_repo_entries Model repository entries.
# HELP relm_repo_evictions_total Repository capacity evictions.
# HELP relm_repo_hits_total Warm-start repository matches.
# HELP relm_sessions Live sessions.
# HELP relm_sessions_by_state Live sessions by state.
# HELP relm_snapshot_bytes Latest snapshot size.
# HELP relm_snapshot_bytes_written_total Snapshot bytes written by this process, all compactions.
# HELP relm_snapshots_total Compacted snapshots written.
# HELP relm_stage_latency_seconds Per-stage latency distribution.
# HELP relm_surrogate_appends_total O(n²) surrogate appends between hyperparameter selections.
# HELP relm_surrogate_compactions_total Surrogate evict-or-reject decisions at the active-set cap.
# HELP relm_surrogate_fits_total Full surrogate hyperparameter selections.
# HELP relm_wal_appended_bytes_total Log bytes appended by this process.
# HELP relm_wal_batched_events_total Records flushed through group commit.
# HELP relm_wal_bytes WAL size across segments.
# HELP relm_wal_commit_batches_total Group-commit batches flushed.
# HELP relm_wal_degraded 1 while the WAL is degraded (read-only).
# HELP relm_wal_events_total Events journaled to the WAL.
# HELP relm_wal_pruned_segments_total Sealed segments deleted by compaction.
# HELP relm_wal_segments Live WAL segments.
# HELP relm_warm_starts_total Repository-seeded sessions.
# TYPE relm_draining gauge
# TYPE relm_evictions_total counter
# TYPE relm_observations_total counter
# TYPE relm_replica_bytes_behind gauge
# TYPE relm_replica_followers gauge
# TYPE relm_replica_ingest_bytes_total counter
# TYPE relm_replica_ingests_total counter
# TYPE relm_replica_primaries gauge
# TYPE relm_replica_promotions_total counter
# TYPE relm_replica_segments_behind gauge
# TYPE relm_replica_ship_errors_total counter
# TYPE relm_replica_ships_total counter
# TYPE relm_repo_entries gauge
# TYPE relm_repo_evictions_total counter
# TYPE relm_repo_hits_total counter
# TYPE relm_sessions gauge
# TYPE relm_sessions_by_state gauge
# TYPE relm_snapshot_bytes gauge
# TYPE relm_snapshot_bytes_written_total counter
# TYPE relm_snapshots_total counter
# TYPE relm_stage_latency_seconds histogram
# TYPE relm_surrogate_appends_total counter
# TYPE relm_surrogate_compactions_total counter
# TYPE relm_surrogate_fits_total counter
# TYPE relm_wal_appended_bytes_total counter
# TYPE relm_wal_batched_events_total counter
# TYPE relm_wal_bytes gauge
# TYPE relm_wal_commit_batches_total counter
# TYPE relm_wal_degraded gauge
# TYPE relm_wal_events_total counter
# TYPE relm_wal_pruned_segments_total counter
# TYPE relm_wal_segments gauge
# TYPE relm_warm_starts_total counter`

// The keys of GET /v1/metrics: on the shipping node of the scenario below,
// on its follower, and — since a quiet node omits what is zero — every key
// there is, as a fully populated snapshot renders them.
const (
	primaryKeys  = "evictions node observations persistence replica_followers replica_last_ack_age_sec replica_ships replication repo_capacity repo_entries sessions sessions_by_state stage_hist stages wal_appended_bytes wal_bytes wal_events wal_segments warm_starts"
	followerKeys = "evictions node observations persistence replica_ingest_bytes replica_ingests replica_primaries replication repo_capacity repo_entries sessions sessions_by_state stage_hist stages wal_segments warm_starts"
	allKeys      = "batched_events commit_batches draining evictions journal_error last_compaction node observations persistence pruned_segments replica_bytes_behind replica_followers replica_ingest_bytes replica_ingests replica_last_ack_age_sec replica_primaries replica_promotions replica_segments_behind replica_ship_errors replica_ships replication repo_capacity repo_entries repo_evictions repo_hits sessions sessions_by_state snapshot_bytes snapshot_bytes_written snapshots stage_hist stages surrogate_appends surrogate_compactions surrogate_fits wal_appended_bytes wal_bytes wal_degraded wal_degraded_reason wal_events wal_segments warm_starts"
)

func sortedKeys(t *testing.T, body []byte) string {
	t.Helper()
	var mt map[string]json.RawMessage
	if err := json.Unmarshal(body, &mt); err != nil {
		t.Fatalf("decode metrics body %q: %v", body, err)
	}
	keys := make([]string, 0, len(mt))
	for k := range mt {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return strings.Join(keys, " ")
}

func TestMetricsWireNames(t *testing.T) {
	// A primary "a" shipping its WAL to a follower "b", both journaled.
	var handlerB atomic.Value
	srvB := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		handlerB.Load().(http.Handler).ServeHTTP(w, r)
	}))
	defer srvB.Close()
	open := func(name string, peers []replica.Peer) (*Manager, *replica.Set) {
		st, err := store.OpenFile(t.TempDir(), store.FileOptions{SegmentBytes: 4096})
		if err != nil {
			t.Fatal(err)
		}
		set, err := replica.New(replica.Options{Self: name, Peers: peers, Dir: t.TempDir(), Source: st, Interval: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		m, err := Open(Options{NodeID: name, Workers: 1, Store: st, Replica: set, RepoCapacity: 8})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { set.Close(); m.Close() })
		return m, set
	}
	mb, _ := open("b", nil)
	handlerB.Store(NewHandler(mb))
	ma, setA := open("a", []replica.Peer{{Name: "b", URL: srvB.URL}})
	srvA := httptest.NewServer(NewHandler(ma))
	defer srvA.Close()

	st, err := ma.Create(Spec{Backend: "bo", Workload: "K-means", Seed: 1, MaxIterations: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		cfg, _, err := ma.Suggest(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ma.Observe(st.ID, Observation{Config: cfg, RuntimeSec: 100 + float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := setA.SyncNow(); err != nil {
		t.Fatal(err)
	}

	get := func(url string) []byte {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	if got := sortedKeys(t, get(srvA.URL+"/v1/metrics")); got != primaryKeys {
		t.Errorf("primary /v1/metrics keys:\n got %s\nwant %s", got, primaryKeys)
	}
	if got := sortedKeys(t, get(srvB.URL+"/v1/metrics")); got != followerKeys {
		t.Errorf("follower /v1/metrics keys:\n got %s\nwant %s", got, followerKeys)
	}
	var comments []string
	for _, line := range strings.Split(string(get(srvA.URL+"/metrics")), "\n") {
		if strings.HasPrefix(line, "# ") {
			comments = append(comments, line)
		}
	}
	sort.Strings(comments)
	if got := strings.Join(comments, "\n"); got != promNames {
		t.Errorf("GET /metrics series names, types or help moved:\n got\n%s\nwant\n%s", got, promNames)
	}

	// Every key there is: nothing about this snapshot is zero.
	full := Metrics{
		Node: "a", Draining: true, Sessions: 1, SessionsByState: map[string]int{StateActive: 1},
		Observations: 1, Evictions: 1, WarmStarts: 1, SurrogateFits: 1, SurrogateAppends: 1, SurrogateCompactions: 1,
		RepoEntries: 1, RepoCapacity: 1, RepoHits: 1, RepoEvictions: 1,
		Persistence: true, JournalError: "x", Replication: true,
		Store: store.Metrics{
			WALBytes: 1, WALEvents: 1, Segments: 1, PrunedSegments: 1, Batches: 1, BatchedEvents: 1,
			Snapshots: 1, SnapshotBytes: 1, AppendedBytes: 1, SnapshotBytesWritten: 1,
			LastCompaction: time.Unix(1, 0), Degraded: true, DegradedReason: "x",
		},
		Replica: replica.Stats{
			Followers: 1, SegmentsBehind: 1, BytesBehind: 1, LastAckAgeSec: 0.5, Ships: 1, ShipErrors: 1,
			Primaries: 1, Ingests: 1, IngestBytes: 1, Promotions: 1,
		},
		Stages: map[string]obs.Snapshot{"service.observe": {Count: 1, SumNs: 1}},
	}
	body, err := json.Marshal(metricsBody(&full))
	if err != nil {
		t.Fatal(err)
	}
	if got := sortedKeys(t, body); got != allKeys {
		t.Errorf("fully populated /v1/metrics keys:\n got %s\nwant %s", got, allKeys)
	}
	// Flags stay booleans and counters numbers: the router sums every
	// top-level numeric, and must not start summing "draining".
	var typed struct {
		Draining    bool    `json:"draining"`
		WALDegraded bool    `json:"wal_degraded"`
		WALEvents   float64 `json:"wal_events"`
	}
	if err := json.Unmarshal(body, &typed); err != nil || !typed.Draining || !typed.WALDegraded || typed.WALEvents != 1 {
		t.Errorf("value types moved (%v): %s", err, body)
	}
}
