package service

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"relm/internal/profile"
)

// This file pins the HTTP error contract — malformed bodies, unknown
// sessions, idempotent double-closes — and the node-identity / drain /
// repository-transfer endpoints the cluster router depends on.

// doRaw posts a raw (possibly malformed) body and returns the status.
func doRaw(t *testing.T, method, url, body string) int {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

func clusterStats() *profile.Stats {
	return &profile.Stats{
		N: 1, MhMB: 8192, CPUAvg: 0.55, DiskAvg: 0.2,
		MiMB: 300, McMB: 2000, MsMB: 150, MuMB: 400,
		P: 2, H: 0.8, S: 0.05, HadFullGC: true, CoresPerNode: 8,
	}
}

func TestHTTPBadJSONBodies(t *testing.T) {
	srv := newTestServer(t)

	for name, tc := range map[string]struct{ method, path, body string }{
		"create truncated":       {http.MethodPost, "/v1/sessions", `{"backend":"bo"`},
		"create not json":        {http.MethodPost, "/v1/sessions", `not json at all`},
		"create unknown field":   {http.MethodPost, "/v1/sessions", `{"backend":"bo","flavor":"mint"}`},
		"create wrong type":      {http.MethodPost, "/v1/sessions", `{"seed":"seven"}`},
		"import truncated":       {http.MethodPost, "/v1/repository/import", `{"models":[`},
		"import unknown field":   {http.MethodPost, "/v1/repository/import", `{"entries":[]}`},
		"observe missing config": {http.MethodPost, "/v1/sessions/sess-1/observe", `{"runtime_sec":`},
	} {
		if code := doRaw(t, tc.method, srv.URL+tc.path, tc.body); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, code)
		}
	}
}

func TestHTTPUnknownSessionEverywhere(t *testing.T) {
	srv := newTestServer(t)

	for _, ep := range []struct{ method, path string }{
		{http.MethodGet, "/v1/sessions/sess-404"},
		{http.MethodPost, "/v1/sessions/sess-404/suggest"},
		{http.MethodGet, "/v1/sessions/sess-404/history"},
		{http.MethodDelete, "/v1/sessions/sess-404"},
	} {
		if code := doJSON(t, ep.method, srv.URL+ep.path, nil, nil); code != http.StatusNotFound {
			t.Errorf("%s %s: status %d, want 404", ep.method, ep.path, code)
		}
	}
	// Observe validates the body before the session lookup can matter;
	// a valid body against a missing session must still 404.
	var sug SuggestResponse
	var created StatusResponse
	doJSON(t, http.MethodPost, srv.URL+"/v1/sessions", CreateRequest{Backend: "bo", Workload: "SVM"}, &created)
	doJSON(t, http.MethodPost, srv.URL+"/v1/sessions/"+created.ID+"/suggest", nil, &sug)
	if code := doJSON(t, http.MethodPost, srv.URL+"/v1/sessions/sess-404/observe",
		ObserveRequest{Config: sug.Config, RuntimeSec: 100}, nil); code != http.StatusNotFound {
		t.Errorf("observe unknown session: status %d, want 404", code)
	}
}

func TestHTTPDoubleCloseIsIdempotent(t *testing.T) {
	srv := newTestServer(t)

	var created StatusResponse
	if code := doJSON(t, http.MethodPost, srv.URL+"/v1/sessions", CreateRequest{Backend: "bo", Workload: "SVM"}, &created); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	for i := 0; i < 3; i++ {
		if code := doJSON(t, http.MethodDelete, srv.URL+"/v1/sessions/"+created.ID, nil, nil); code != http.StatusNoContent {
			t.Fatalf("close #%d: status %d, want 204 every time", i+1, code)
		}
	}
}

func TestHTTPCreateWithIDConflictsAndValidates(t *testing.T) {
	srv := newTestServer(t)

	var created StatusResponse
	if code := doJSON(t, http.MethodPost, srv.URL+"/v1/sessions",
		CreateRequest{ID: "router-minted-1", Backend: "bo", Workload: "SVM"}, &created); code != http.StatusCreated {
		t.Fatalf("create with ID: status %d", code)
	}
	if created.ID != "router-minted-1" {
		t.Fatalf("assigned ID not honoured: %q", created.ID)
	}
	if code := doJSON(t, http.MethodPost, srv.URL+"/v1/sessions",
		CreateRequest{ID: "router-minted-1", Backend: "bo", Workload: "SVM"}, nil); code != http.StatusConflict {
		t.Fatalf("duplicate ID: status %d, want 409", code)
	}
	// A closed ID stays burned: re-creating it would resurrect history.
	doJSON(t, http.MethodDelete, srv.URL+"/v1/sessions/router-minted-1", nil, nil)
	if code := doJSON(t, http.MethodPost, srv.URL+"/v1/sessions",
		CreateRequest{ID: "router-minted-1", Backend: "bo", Workload: "SVM"}, nil); code != http.StatusConflict {
		t.Fatalf("recreate closed ID: status %d, want 409", code)
	}
	if code := doJSON(t, http.MethodPost, srv.URL+"/v1/sessions",
		CreateRequest{ID: "bad/id", Backend: "bo", Workload: "SVM"}, nil); code != http.StatusBadRequest {
		t.Fatalf("bad ID characters: status %d, want 400", code)
	}
	// The counter namespace is reserved: "sess-N" could collide with a
	// counter-assigned ID (issued, pruned, or future).
	for _, id := range []string{"sess-1", "sess-99999"} {
		if code := doJSON(t, http.MethodPost, srv.URL+"/v1/sessions",
			CreateRequest{ID: id, Backend: "bo", Workload: "SVM"}, nil); code != http.StatusBadRequest {
			t.Fatalf("reserved counter ID %q: status %d, want 400", id, code)
		}
	}
}

func TestHTTPNodeIdentityAndDrain(t *testing.T) {
	m, err := Open(Options{NodeID: "node-a", Advertise: "http://10.0.0.1:8080", Workers: 1, TTL: time.Hour})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(m.Close)
	srv := httptest.NewServer(NewHandler(m))
	t.Cleanup(srv.Close)

	var health map[string]any
	if code := doJSON(t, http.MethodGet, srv.URL+"/healthz", nil, &health); code != http.StatusOK {
		t.Fatalf("healthz: status %d", code)
	}
	if health["node"] != "node-a" || health["advertise"] != "http://10.0.0.1:8080" {
		t.Fatalf("healthz identity: %+v", health)
	}
	if _, ok := health["draining"]; ok {
		t.Fatalf("healthz reports draining before any drain: %+v", health)
	}

	// Node-prefixed counter IDs, and the node stamped on every status.
	var created StatusResponse
	doJSON(t, http.MethodPost, srv.URL+"/v1/sessions", CreateRequest{
		Backend: "gbo", Workload: "K-means", MaxIterations: 30,
		WarmStart: true, Stats: clusterStats(), DefaultRuntimeSec: 240,
	}, &created)
	if created.ID != "node-a-sess-1" || created.Node != "node-a" {
		t.Fatalf("node identity on session: id %q node %q", created.ID, created.Node)
	}
	// The reserved counter namespace is the node-prefixed one here; a bare
	// "sess-N" is foreign on this node and therefore allowed.
	if code := doJSON(t, http.MethodPost, srv.URL+"/v1/sessions",
		CreateRequest{ID: "node-a-sess-9", Backend: "bo", Workload: "SVM"}, nil); code != http.StatusBadRequest {
		t.Fatalf("reserved node-prefixed counter ID: status %d, want 400", code)
	}
	if code := doJSON(t, http.MethodPost, srv.URL+"/v1/sessions",
		CreateRequest{ID: "sess-9", Backend: "bo", Workload: "SVM"}, nil); code != http.StatusCreated {
		t.Fatalf("foreign bare counter ID on a named node: status %d, want 201", code)
	}
	// Closed again so the drain below sees exactly one live session.
	doJSON(t, http.MethodDelete, srv.URL+"/v1/sessions/sess-9", nil, nil)
	var sug SuggestResponse
	doJSON(t, http.MethodPost, srv.URL+"/v1/sessions/"+created.ID+"/suggest", nil, &sug)
	if code := doJSON(t, http.MethodPost, srv.URL+"/v1/sessions/"+created.ID+"/observe",
		ObserveRequest{Config: sug.Config, RuntimeSec: 200}, nil); code != http.StatusOK {
		t.Fatalf("observe: status %d", code)
	}

	var drain HandoffReport
	if code := doJSON(t, http.MethodPost, srv.URL+"/v1/drain", nil, &drain); code != http.StatusOK {
		t.Fatalf("drain: status %d", code)
	}
	if drain.Node != "node-a" || len(drain.Sessions) != 1 || len(drain.Repo) != 1 {
		t.Fatalf("drain report: %+v", drain)
	}
	ds := drain.Sessions[0]
	if ds.ID != created.ID || ds.State != StateActive || len(ds.History) != 1 || ds.Harvested {
		t.Fatalf("drained session: %+v", ds)
	}
	if m.Len() != 0 {
		t.Fatalf("drain left %d sessions behind", m.Len())
	}

	// The snapshot is the adopt body, verbatim: a successor takes it over
	// HTTP with its history, and refuses a second copy.
	succ := NewManager(Options{NodeID: "node-b", Workers: 1, TTL: time.Hour})
	t.Cleanup(succ.Close)
	succSrv := httptest.NewServer(NewHandler(succ))
	t.Cleanup(succSrv.Close)
	var adopted StatusResponse
	if code := doJSON(t, http.MethodPost, succSrv.URL+"/v1/handoff/adopt", ds, &adopted); code != http.StatusCreated {
		t.Fatalf("adopt: status %d", code)
	}
	if adopted.ID != created.ID || adopted.Node != "node-b" || adopted.Evals != 1 || adopted.State != StateActive {
		t.Fatalf("adopted session: %+v", adopted)
	}
	if code := doJSON(t, http.MethodPost, succSrv.URL+"/v1/handoff/adopt", ds, nil); code != http.StatusConflict {
		t.Fatalf("second adopt of the same session: status %d, want 409", code)
	}
	ds.ID = "elsewhere-1" // its own counter namespace would be a 400
	if code := doJSON(t, http.MethodPost, srv.URL+"/v1/handoff/adopt", ds, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("adopt on the draining node: status %d, want 503", code)
	}

	// Draining is terminal and visible.
	if code := doJSON(t, http.MethodPost, srv.URL+"/v1/sessions", CreateRequest{Backend: "bo", Workload: "SVM"}, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("create while draining: status %d, want 503", code)
	}
	health = nil
	doJSON(t, http.MethodGet, srv.URL+"/healthz", nil, &health)
	if health["draining"] != true {
		t.Fatalf("healthz after drain: %+v", health)
	}
	var drain2 HandoffReport
	doJSON(t, http.MethodPost, srv.URL+"/v1/drain", nil, &drain2)
	if len(drain2.Sessions) != 0 {
		t.Fatalf("second drain not empty: %+v", drain2)
	}
}

// TestHTTPRepositoryTransfer moves models from one node to another over
// export/import and checks the receiver warm-starts from them.
func TestHTTPRepositoryTransfer(t *testing.T) {
	a := NewManager(Options{NodeID: "a", Workers: 1, TTL: time.Hour})
	t.Cleanup(a.Close)
	srvA := httptest.NewServer(NewHandler(a))
	t.Cleanup(srvA.Close)
	b := NewManager(Options{NodeID: "b", Workers: 1, TTL: time.Hour})
	t.Cleanup(b.Close)
	srvB := httptest.NewServer(NewHandler(b))
	t.Cleanup(srvB.Close)

	// A completed session on a populates its repository.
	var created StatusResponse
	doJSON(t, http.MethodPost, srvA.URL+"/v1/sessions", CreateRequest{
		Backend: "bo", Workload: "K-means", MaxIterations: 2,
		WarmStart: true, Stats: clusterStats(), DefaultRuntimeSec: 240,
	}, &created)
	for i := 0; created.State != StateDone && i < 40; i++ {
		var sug SuggestResponse
		doJSON(t, http.MethodPost, srvA.URL+"/v1/sessions/"+created.ID+"/suggest", nil, &sug)
		doJSON(t, http.MethodPost, srvA.URL+"/v1/sessions/"+created.ID+"/observe",
			ObserveRequest{Config: sug.Config, RuntimeSec: 300 - float64(i)}, &created)
	}
	if created.State != StateDone {
		t.Fatalf("session never completed: %+v", created)
	}

	var exported RepoExportResponse
	if code := doJSON(t, http.MethodGet, srvA.URL+"/v1/repository/export", nil, &exported); code != http.StatusOK {
		t.Fatalf("export: status %d", code)
	}
	if len(exported.Models) != 1 || len(exported.Models[0].Points) == 0 {
		t.Fatalf("export: %d models", len(exported.Models))
	}

	var imported RepoImportResponse
	if code := doJSON(t, http.MethodPost, srvB.URL+"/v1/repository/import",
		exported, &imported); code != http.StatusOK || imported.Imported != 1 {
		t.Fatalf("import: status %d imported %d", code, imported.Imported)
	}
	// Idempotent: a replayed broadcast adds nothing.
	doJSON(t, http.MethodPost, srvB.URL+"/v1/repository/import",
		exported, &imported)
	if imported.Imported != 0 {
		t.Fatalf("re-import added %d entries, want 0", imported.Imported)
	}

	// The receiver warm-starts a matching workload from the import.
	var warm StatusResponse
	doJSON(t, http.MethodPost, srvB.URL+"/v1/sessions", CreateRequest{
		Backend: "gbo", Workload: "K-means", MaxIterations: 30,
		WarmStart: true, Stats: clusterStats(), DefaultRuntimeSec: 240,
	}, &warm)
	if !warm.WarmStarted || warm.WarmSource != "K-means" {
		t.Fatalf("import did not enable warm start: %+v", warm)
	}
}
