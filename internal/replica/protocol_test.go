package replica_test

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"relm/internal/replica"
	"relm/internal/store"
)

// stamps are the parts of an exchange read off the clock or hashed from
// content: a replica's last-ingest time, a snapshot's hash.
var stamps = regexp.MustCompile(`"last_ingest":"[^"]*"|hash=[0-9a-f]+`)

// TestIngestProtocolRoundTrip drives the real shipper against the real
// Handler through the turns the protocol can take, and pins both sides of
// each: what the follower answered (status and body, as captured from the
// service-side handlers this package's Handler replaced) and what the
// shipper did about it.
func TestIngestProtocolRoundTrip(t *testing.T) {
	chunkAt := func(offset int64) string {
		return fmt.Sprintf("/v1/replica/segments?primary=a&segment=1&offset=%d&min=1", offset)
	}
	onFirstIngest := func(rig *shipRig, fn func()) {
		rig.before = func(r *http.Request) {
			if r.Method == http.MethodPost {
				rig.before = nil
				fn()
			}
		}
	}
	for _, c := range []struct {
		name string
		// arrange readies the rig and returns what the cycle under test
		// must put on the wire.
		arrange func(t *testing.T, rig *shipRig) []exchange
		wantErr string // what SyncNow's error mentions; "" for none
		after   func(t *testing.T, rig *shipRig)
	}{
		{
			name: "offset mismatch: 409 carries the size, the shipper resumes from it",
			arrange: func(t *testing.T, rig *shipRig) []exchange {
				rig.append(t, 3)
				head, err := os.ReadFile(filepath.Join(rig.primaryDir, store.SegmentFileName(1)))
				if err != nil {
					t.Fatal(err)
				}
				// Between the status the shipper read and its first chunk, the
				// follower gains 10 bytes — a chunk of an earlier cycle whose
				// ack was lost.
				onFirstIngest(rig, func() {
					if _, err := rig.follower.Ingest("a", 1, 0, 0, head[:10]); err != nil {
						t.Error(err)
					}
				})
				return []exchange{
					{"GET", "/v1/replica/status?primary=a", 200, `{"node":"b","primaries":null,"followers":[]}`},
					{"POST", chunkAt(0), 409, `{"size":10,"error":"replica: offset mismatch, segment has 10 bytes"}`},
					{"POST", chunkAt(10), 200, fmt.Sprintf(`{"size":%d}`, len(head))},
				}
			},
			after: func(t *testing.T, rig *shipRig) {
				rig.assertMirrored(t)
				if st := rig.set.Stats(); st.ShipErrors != 0 || st.BytesBehind != 0 {
					t.Errorf("a resumed cycle is not a failed one: %+v", st)
				}
			},
		},
		{
			name: "fenced: 410, the shipper fences the follower and stops",
			arrange: func(t *testing.T, rig *shipRig) []exchange {
				rig.append(t, 3)
				if err := rig.set.SyncNow(); err != nil {
					t.Fatal(err)
				}
				size := rig.primary.Segments()[0].Bytes
				rig.append(t, 2)
				rig.log = nil
				onFirstIngest(rig, func() {
					if _, err := rig.follower.Promote("a"); err != nil {
						t.Error(err)
					}
				})
				return []exchange{
					{"GET", "/v1/replica/status?primary=a", 200, fmt.Sprintf(`{"node":"b","primaries":[{"primary":"a","segments":[{"index":1,"bytes":%d}],"bytes":%[1]d,"last_ingest":"T"}],"followers":[]}`, size)},
					{"POST", chunkAt(size), 410, `{"size":0,"error":"replica: primary promoted, ingest fenced"}`},
				}
			},
			after: func(t *testing.T, rig *shipRig) {
				if st := rig.set.Status(); !st.Followers[0].Promoted || st.Followers[0].ShipErrors != 0 {
					t.Errorf("follower status after a 410: %+v", st.Followers[0])
				}
				sent := len(rig.log)
				if err := rig.set.SyncNow(); err != nil || len(rig.log) != sent {
					t.Errorf("a fenced shipper still ships: err %v, %d more requests", err, len(rig.log)-sent)
				}
			},
		},
		{
			name: "replication off: an empty status, then nowhere to put a chunk",
			arrange: func(t *testing.T, rig *shipRig) []exchange {
				rig.handler = replica.Handler(nil, "b")
				rig.append(t, 2)
				return []exchange{
					{"GET", "/v1/replica/status?primary=a", 200, `{"node":"b","primaries":null,"followers":null}`},
					{"POST", chunkAt(0), 503, `{"size":0,"error":"replication not configured"}`},
				}
			},
			wantErr: "HTTP 503: " + `{"size":0,"error":"replication not configured"}`,
		},
		{
			name: "replication off: nor a snapshot",
			arrange: func(t *testing.T, rig *shipRig) []exchange {
				rig.handler = replica.Handler(nil, "b")
				rig.append(t, 2)
				if err := rig.primary.Compact(&store.Snapshot{Fence: rig.primary.Seq()}); err != nil {
					t.Fatal(err)
				}
				return []exchange{
					{"GET", "/v1/replica/status?primary=a", 200, `{"node":"b","primaries":null,"followers":null}`},
					{"POST", "/v1/replica/snapshot?primary=a&hash=H", 503, `{"size":0,"error":"replication not configured"}`},
				}
			},
			wantErr: "HTTP 503: " + `{"size":0,"error":"replication not configured"}`,
		},
	} {
		t.Run(c.name, func(t *testing.T) {
			rig := newShipRig(t, 0)
			want := c.arrange(t, rig)
			err := rig.set.SyncNow()
			if (c.wantErr == "") != (err == nil) || (err != nil && !strings.Contains(err.Error(), c.wantErr)) {
				t.Errorf("SyncNow: %v, want an error mentioning %q", err, c.wantErr)
			}
			for i := range rig.log {
				e := &rig.log[i]
				e.url = stamps.ReplaceAllString(e.url, "hash=H")
				e.body = strings.TrimSuffix(stamps.ReplaceAllString(e.body, `"last_ingest":"T"`), "\n")
			}
			if !reflect.DeepEqual(rig.log, want) {
				t.Errorf("the cycle's exchanges:\n got %+v\nwant %+v", rig.log, want)
			}
			if c.after != nil {
				c.after(t, rig)
			}
		})
	}
}

// idleSource is a primary with nothing to ship; a cycle against it still
// opens with the status request.
type idleSource struct{}

func (idleSource) Segments() []store.SegmentInfo                    { return nil }
func (idleSource) ReadSegmentAt(uint64, int64, []byte) (int, error) { return 0, os.ErrNotExist }
func (idleSource) ReadSnapshotRaw() ([]byte, error)                 { return nil, nil }
func (idleSource) SnapshotHash() string                             { return "" }

// TestCloseInterruptsInFlightShip: a follower that accepts a request and
// never answers must not hold Close hostage. Each exchange once leaned on a
// 10-second client timeout with no context, so Close waited that out.
func TestCloseInterruptsInFlightShip(t *testing.T) {
	entered, release := make(chan struct{}, 1), make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case entered <- struct{}{}:
		default:
		}
		<-release
	}))
	defer srv.Close()
	defer close(release)

	set, err := replica.New(replica.Options{
		Self:     "a",
		Peers:    []replica.Peer{{Name: "b", URL: srv.URL}},
		Source:   idleSource{},
		Interval: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	<-entered // the background loop's first cycle is now blocked on the follower
	start := time.Now()
	set.Close()
	if took := time.Since(start); took > time.Second {
		t.Fatalf("Close took %v with a ship request in flight", took)
	}
}

// zeros is an endless body that costs no memory to declare.
type zeros struct{}

func (zeros) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = 0
	}
	return len(p), nil
}

// TestIngestRefusesBodyOverLimit: a chunk one byte over what the follower
// accepts is refused whole — not cut at the limit and its prefix appended
// to the replica as if that were what the primary sent.
func TestIngestRefusesBodyOverLimit(t *testing.T) {
	rig := newShipRig(t, 0)
	if _, err := rig.follower.Ingest("a", 1, 0, 0, []byte("{}\n")); err != nil {
		t.Fatal(err)
	}
	const limit = 64 << 20
	req := httptest.NewRequest(http.MethodPost, "/v1/replica/segments?primary=a&segment=1&offset=3&min=0", io.LimitReader(zeros{}, limit+1))
	req.ContentLength = limit + 1
	rec := httptest.NewRecorder()
	rig.handler.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "limit") {
		t.Errorf("over-limit chunk answered %d %s", rec.Code, rec.Body)
	}
	if st, err := os.Stat(filepath.Join(rig.replicaDir(), store.SegmentFileName(1))); err != nil || st.Size() != 3 {
		t.Fatalf("replica segment after the refusal: %v, err %v; want its 3 bytes", st.Size(), err)
	}
}

// TestIngestSnapshotVerifiesHash: a snapshot whose bytes are not what the
// hash it was sent under names is refused, and the one in place — file and
// acked hash — stays. The shipper sends again on its next cycle.
func TestIngestSnapshotVerifiesHash(t *testing.T) {
	rig := newShipRig(t, 0)
	held := []byte(`{"fence":1}`)
	if err := rig.follower.IngestSnapshot("a", store.HashHex(held), held); err != nil {
		t.Fatal(err)
	}
	post := func(hash, body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		rig.handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/replica/snapshot?primary=a&hash="+hash, strings.NewReader(body)))
		return rec
	}
	check := func(want []byte) {
		t.Helper()
		got, err := os.ReadFile(filepath.Join(rig.replicaDir(), "snapshot.json"))
		if err != nil || string(got) != string(want) {
			t.Fatalf("replica snapshot %q (err %v), want %q", got, err, want)
		}
		if st := rig.follower.Status(); len(st.Primaries) != 1 || st.Primaries[0].SnapshotHash != store.HashHex(want) {
			t.Fatalf("acked snapshot hash: %+v, want %s", st.Primaries, store.HashHex(want))
		}
		if stale, _ := filepath.Glob(filepath.Join(rig.replicaDir(), ".store-*")); len(stale) != 0 {
			t.Fatalf("temp files left behind: %v", stale)
		}
	}

	next := `{"fence":2}`
	// The file was replaced on the primary between naming and reading it, or
	// the body was damaged on the way: either way these are not the bytes of
	// the hash.
	if rec := post(store.HashHex(held), next); rec.Code != http.StatusBadRequest {
		t.Fatalf("mismatched snapshot answered %d %s, want 400", rec.Code, rec.Body)
	}
	check(held)
	if rec := post(store.HashHex([]byte(next)), next); rec.Code != http.StatusOK {
		t.Fatalf("matching snapshot answered %d %s", rec.Code, rec.Body)
	}
	check([]byte(next))
}

// TestRestartSweepsTempFiles: a snapshot install cut short by a kill -9
// leaves its temp file in the replica directory; adopting the directory
// removes it and nothing else.
func TestRestartSweepsTempFiles(t *testing.T) {
	dir := t.TempDir()
	s1, err := replica.New(replica.Options{Self: "b", Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	snap := []byte(`{"fence":1}`)
	if _, err := s1.Ingest("a", 1, 0, 0, []byte("{}\n")); err != nil {
		t.Fatal(err)
	}
	if err := s1.IngestSnapshot("a", "", snap); err != nil {
		t.Fatal(err)
	}
	s1.Close()
	if err := os.WriteFile(filepath.Join(dir, "a", ".store-987654"), []byte("half a snapshot"), 0o600); err != nil {
		t.Fatal(err)
	}

	s2, err := replica.New(replica.Options{Self: "b", Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	entries, err := os.ReadDir(filepath.Join(dir, "a"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if want := []string{"snapshot.json", store.SegmentFileName(1)}; !reflect.DeepEqual(names, want) {
		t.Fatalf("replica directory after adoption: %v, want %v", names, want)
	}
	if st := s2.Status(); len(st.Primaries) != 1 || st.Primaries[0].SnapshotHash != store.HashHex(snap) || st.Primaries[0].Bytes != 3 {
		t.Fatalf("adopted replica: %+v", st.Primaries)
	}
}
