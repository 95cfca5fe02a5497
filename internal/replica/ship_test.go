package replica_test

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"relm/internal/obs"
	"relm/internal/replica"
	"relm/internal/store"
)

// shipRig is one primary (real segmented store) shipping to one follower
// (an ingest-role Set behind Handler, traced like a node's API) over real
// HTTP.
type shipRig struct {
	primary     *store.File
	source      *countingSource // primary, as the shipper reads it
	primaryDir  string
	set         *replica.Set
	follower    *replica.Set
	followerDir string
	srv         *httptest.Server

	// handler serves the follower's side; before, when set, runs ahead of
	// it on every request, and log keeps every exchange in order. Tests
	// drive cycles with SyncNow, so none of it is touched concurrently.
	handler http.Handler
	before  func(*http.Request)
	log     []exchange
}

// exchange is one request the shipper made and the answer it got.
type exchange struct {
	method, url string
	status      int
	body        string
}

func newShipRig(t *testing.T, segmentBytes int64) *shipRig {
	t.Helper()
	rig := &shipRig{primaryDir: t.TempDir(), followerDir: t.TempDir()}

	var err error
	rig.follower, err = replica.New(replica.Options{Self: "b", Dir: rig.followerDir})
	if err != nil {
		t.Fatal(err)
	}
	rig.handler = replica.Handler(rig.follower, "b")
	tracer := obs.NewTracer("b", 0, nil)
	mux := http.NewServeMux()
	mux.Handle("GET /v1/traces", tracer.Handler("b"))
	mux.HandleFunc("/v1/replica/", func(w http.ResponseWriter, r *http.Request) {
		if rig.before != nil {
			rig.before(r)
		}
		rec := httptest.NewRecorder()
		rig.handler.ServeHTTP(rec, r)
		rig.log = append(rig.log, exchange{r.Method, r.URL.RequestURI(), rec.Code, rec.Body.String()})
		for k, v := range rec.Header() {
			w.Header()[k] = v
		}
		w.WriteHeader(rec.Code)
		w.Write(rec.Body.Bytes())
	})
	rig.srv = httptest.NewServer(tracer.Middleware(mux))

	rig.primary, err = store.OpenFile(rig.primaryDir, store.FileOptions{SegmentBytes: segmentBytes})
	if err != nil {
		t.Fatal(err)
	}
	// A huge interval keeps the background loop dormant; tests drive
	// cycles with SyncNow for determinism.
	rig.source = &countingSource{File: rig.primary}
	rig.set, err = replica.New(replica.Options{
		Self:     "a",
		Peers:    []replica.Peer{{Name: "b", URL: rig.srv.URL}},
		Source:   rig.source,
		Interval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		rig.set.Close()
		rig.srv.Close()
		rig.follower.Close()
		rig.primary.Close()
	})
	return rig
}

// countingSource is the primary's store counting the snapshot reads a ship
// cycle makes of it.
type countingSource struct {
	*store.File
	snapshotReads int
}

func (c *countingSource) ReadSnapshotRaw() ([]byte, error) {
	c.snapshotReads++
	return c.File.ReadSnapshotRaw()
}

func (rig *shipRig) append(t *testing.T, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		ev := &store.Event{Type: store.EventClose, ID: "sess-pad", Time: time.Unix(int64(i), 0).UTC()}
		if _, err := rig.primary.Append(ev); err != nil {
			t.Fatal(err)
		}
	}
}

// replicaDir is where the follower keeps primary a's replica.
func (rig *shipRig) replicaDir() string { return filepath.Join(rig.followerDir, "a") }

// assertMirrored fails unless every primary segment is byte-identical on
// the follower.
func (rig *shipRig) assertMirrored(t *testing.T) {
	t.Helper()
	segs := rig.primary.Segments()
	if len(segs) == 0 {
		t.Fatal("primary has no segments")
	}
	for _, seg := range segs {
		name := store.SegmentFileName(seg.Index)
		want, err := os.ReadFile(filepath.Join(rig.primaryDir, name))
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(rig.replicaDir(), name))
		if err != nil {
			t.Fatalf("replica missing %s: %v", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("replica %s differs: %d bytes vs %d", name, len(got), len(want))
		}
	}
}

func TestShipCatchUpAndTail(t *testing.T) {
	rig := newShipRig(t, 512)
	rig.append(t, 20) // several sealed segments + an active tail
	if err := rig.set.SyncNow(); err != nil {
		t.Fatalf("sync: %v", err)
	}
	rig.assertMirrored(t)

	st := rig.set.Stats()
	if st.SegmentsBehind != 0 || st.BytesBehind != 0 {
		t.Fatalf("lag after full sync: %+v", st)
	}
	if st.Ships == 0 {
		t.Fatal("no ships counted")
	}

	// Tail growth: a second cycle ships only the delta and stays exact.
	rig.append(t, 7)
	if err := rig.set.SyncNow(); err != nil {
		t.Fatalf("tail sync: %v", err)
	}
	rig.assertMirrored(t)

	// Idempotence across shipper restarts: a fresh Set (no memory of what
	// was acked) must converge without corrupting the replica.
	set2, err := replica.New(replica.Options{
		Self:     "a",
		Peers:    []replica.Peer{{Name: "b", URL: rig.srv.URL}},
		Source:   rig.primary,
		Interval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer set2.Close()
	if err := set2.SyncNow(); err != nil {
		t.Fatalf("restarted shipper sync: %v", err)
	}
	rig.assertMirrored(t)
}

func TestShipSnapshotAndPrune(t *testing.T) {
	rig := newShipRig(t, 512)
	rig.append(t, 20)
	if err := rig.set.SyncNow(); err != nil {
		t.Fatal(err)
	}

	// Compaction folds the sealed prefix into a snapshot and deletes it.
	if err := rig.primary.Compact(&store.Snapshot{Fence: rig.primary.Seq()}); err != nil {
		t.Fatal(err)
	}
	rig.append(t, 3) // new bytes so the next cycle carries the new min
	if err := rig.set.SyncNow(); err != nil {
		t.Fatal(err)
	}
	rig.assertMirrored(t)

	// The replica snapshot is byte-identical to the primary's…
	want, err := os.ReadFile(filepath.Join(rig.primaryDir, "snapshot.json"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(rig.replicaDir(), "snapshot.json"))
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("replica snapshot differs (err %v)", err)
	}
	// …and segments the primary compacted away are pruned on the replica.
	minLive := rig.primary.Segments()[0].Index
	replSegs, err := store.ListSegmentFiles(rig.replicaDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, seg := range replSegs {
		if seg.Index < minLive {
			t.Fatalf("replica kept pruned segment %d (min live %d)", seg.Index, minLive)
		}
	}

	// A second cycle with nothing new ships nothing (snapshot hash match).
	before := rig.follower.Stats().Ingests
	if err := rig.set.SyncNow(); err != nil {
		t.Fatal(err)
	}
	if after := rig.follower.Stats().Ingests; after != before {
		t.Fatalf("idle cycle re-shipped: ingests %d -> %d", before, after)
	}
}

func TestShipStopsAfterPromotion(t *testing.T) {
	rig := newShipRig(t, 512)
	rig.append(t, 5)
	if err := rig.set.SyncNow(); err != nil {
		t.Fatal(err)
	}

	// The follower promotes a's replica (fail-over elsewhere decided a is
	// dead). The zombie primary's next cycles must fence cleanly: no
	// error, no counter churn, Promoted surfaced in its follower status.
	if _, err := rig.follower.Promote("a"); err != nil {
		t.Fatal(err)
	}
	rig.append(t, 3)
	if err := rig.set.SyncNow(); err != nil {
		t.Fatalf("fenced cycle errored: %v", err)
	}
	st := rig.set.Status()
	if len(st.Followers) != 1 || !st.Followers[0].Promoted {
		t.Fatalf("follower status after fence: %+v", st.Followers)
	}
	if err := rig.set.SyncNow(); err != nil {
		t.Fatalf("post-fence cycle errored: %v", err)
	}
	// Replica content froze at the promotion point.
	segs, err := store.ListSegmentFiles(rig.replicaDir())
	if err != nil {
		t.Fatal(err)
	}
	var replicaBytes int64
	for _, seg := range segs {
		replicaBytes += seg.Bytes
	}
	var primaryBytes int64
	for _, seg := range rig.primary.Segments() {
		primaryBytes += seg.Bytes
	}
	if replicaBytes >= primaryBytes {
		t.Fatalf("replica kept growing after fence: %d vs primary %d", replicaBytes, primaryBytes)
	}
}

// TestShipSkipsUnchangedSnapshot: the shipper asks the store what its
// snapshot is called and reads the file only to send it — once per
// compaction, never on the cycles in between.
func TestShipSkipsUnchangedSnapshot(t *testing.T) {
	rig := newShipRig(t, 512)
	rig.append(t, 20)
	compact := func() {
		t.Helper()
		if err := rig.primary.Compact(&store.Snapshot{Fence: rig.primary.Seq()}); err != nil {
			t.Fatal(err)
		}
	}
	snapshotsShipped := func() (n int) {
		for _, ex := range rig.log {
			if ex.method == http.MethodPost && strings.HasPrefix(ex.url, "/v1/replica/snapshot") {
				n++
			}
		}
		return n
	}
	cycles := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			rig.append(t, 2) // the log moves on; the snapshot does not
			if err := rig.set.SyncNow(); err != nil {
				t.Fatal(err)
			}
		}
	}

	compact()
	cycles(1)
	if rig.source.snapshotReads != 1 || snapshotsShipped() != 1 {
		t.Fatalf("first cycle after a compaction: %d snapshot reads, %d shipped, want 1 and 1", rig.source.snapshotReads, snapshotsShipped())
	}
	cycles(5)
	if rig.source.snapshotReads != 1 || snapshotsShipped() != 1 {
		t.Fatalf("cycles with no compaction: %d snapshot reads, %d shipped, want still 1 and 1", rig.source.snapshotReads, snapshotsShipped())
	}
	compact()
	cycles(5)
	if rig.source.snapshotReads != 2 || snapshotsShipped() != 2 {
		t.Fatalf("a compaction in between: %d snapshot reads, %d shipped, want 2 and 2", rig.source.snapshotReads, snapshotsShipped())
	}
	rig.assertMirrored(t)
	want, err := os.ReadFile(filepath.Join(rig.primaryDir, "snapshot.json"))
	if err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(filepath.Join(rig.replicaDir(), "snapshot.json")); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("replica snapshot differs (err %v)", err)
	}
}

// TestIdleShipCycleAllocations: a cycle to a follower that is caught up
// reads no snapshot and holds no chunk buffer — it costs the status
// exchange, both ends of which run in this process and are counted here.
func TestIdleShipCycleAllocations(t *testing.T) {
	rig := newShipRig(t, 512)
	rig.append(t, 20)
	if err := rig.primary.Compact(&store.Snapshot{Fence: 10}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ { // catch up, then warm the connection
		if err := rig.set.SyncNow(); err != nil {
			t.Fatal(err)
		}
	}
	reads := rig.source.snapshotReads
	const cycles = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < cycles; i++ {
		if err := rig.set.SyncNow(); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if rig.source.snapshotReads != reads {
		t.Errorf("idle cycles read the snapshot %d times", rig.source.snapshotReads-reads)
	}
	if per := (after.TotalAlloc - before.TotalAlloc) / cycles; per >= 64<<10 {
		t.Errorf("an idle ship cycle allocates %d bytes, want under 64 KiB", per)
	} else {
		t.Logf("idle ship cycle: %d bytes allocated", per)
	}
}
