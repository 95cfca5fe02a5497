package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"

	"relm/internal/conf"
	"relm/internal/profile"
	"relm/internal/sim"
	"relm/internal/sim/cluster"
	"relm/internal/sim/workload"
	"relm/internal/store"
)

func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	m := newTestManager(t, Options{Workers: 2})
	srv := httptest.NewServer(NewHandler(m))
	t.Cleanup(srv.Close)
	return srv
}

func doJSON(t *testing.T, method, url string, body, out any) int {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req, err := http.NewRequest(method, url, &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decode: %v", method, url, err)
		}
	}
	return resp.StatusCode
}

// driveHTTPSession runs one complete remote tuning loop over the wire and
// returns the final status.
func driveHTTPSession(t *testing.T, base string, create CreateRequest, maxSteps int) StatusResponse {
	t.Helper()
	var created StatusResponse
	if code := doJSON(t, http.MethodPost, base+"/v1/sessions", create, &created); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	if created.ID == "" {
		t.Fatal("create returned no id")
	}

	cl := cluster.A()
	if create.Cluster == "B" {
		cl = cluster.B()
	}
	wl, ok := workload.ByName(create.Workload)
	if !ok {
		t.Fatalf("unknown workload %q", create.Workload)
	}

	for step := 0; step < maxSteps; step++ {
		var sug SuggestResponse
		if code := doJSON(t, http.MethodPost, fmt.Sprintf("%s/v1/sessions/%s/suggest", base, created.ID), nil, &sug); code != http.StatusOK {
			t.Fatalf("suggest: status %d", code)
		}
		if sug.Done {
			break
		}
		// The client "measures" the suggested configuration (simulator
		// stands in for the real cluster) and reports back.
		res, prof := sim.Run(cl, wl, conf.Config(sug.Config), uint64(1000+step))
		st := profile.Generate(prof)
		obs := ObserveRequest{Config: sug.Config, RuntimeSec: res.RuntimeSec, Aborted: res.Aborted, Stats: &st}
		var after StatusResponse
		if code := doJSON(t, http.MethodPost, fmt.Sprintf("%s/v1/sessions/%s/observe", base, created.ID), obs, &after); code != http.StatusOK {
			t.Fatalf("observe: status %d", code)
		}
	}

	var final StatusResponse
	if code := doJSON(t, http.MethodGet, base+"/v1/sessions/"+created.ID, nil, &final); code != http.StatusOK {
		t.Fatalf("get: status %d", code)
	}
	return final
}

// TestHTTPFullLoopAllBackends is the acceptance loop: every backend is
// drivable to completion over HTTP.
func TestHTTPFullLoopAllBackends(t *testing.T) {
	srv := newTestServer(t)
	for _, backend := range []string{"relm", "bo", "gbo", "ddpg"} {
		t.Run(backend, func(t *testing.T) {
			final := driveHTTPSession(t, srv.URL, CreateRequest{
				Backend:       backend,
				Workload:      "K-means",
				Cluster:       "A",
				Seed:          11,
				MaxIterations: 2,
				MaxSteps:      2,
			}, 40)
			if !final.Done || final.State != StateDone {
				t.Fatalf("final status: %+v", final)
			}
			if final.Best == nil || final.Best.RuntimeSec <= 0 {
				t.Fatalf("no best: %+v", final)
			}
		})
	}
}

// TestHTTPConcurrentSessions drives 8 independent HTTP tuning loops in
// parallel — the service's headline scenario. Run with -race.
func TestHTTPConcurrentSessions(t *testing.T) {
	srv := newTestServer(t)
	backends := []string{"relm", "bo", "gbo", "ddpg"}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			final := driveHTTPSession(t, srv.URL, CreateRequest{
				Backend:       backends[g%len(backends)],
				Workload:      "WordCount",
				Seed:          uint64(g),
				MaxIterations: 2,
				MaxSteps:      2,
			}, 40)
			if !final.Done {
				t.Errorf("goroutine %d: session not done: %+v", g, final)
			}
		}(g)
	}
	wg.Wait()
}

func TestHTTPErrors(t *testing.T) {
	srv := newTestServer(t)

	if code := doJSON(t, http.MethodGet, srv.URL+"/v1/sessions/nope", nil, nil); code != http.StatusNotFound {
		t.Fatalf("missing session: status %d", code)
	}
	if code := doJSON(t, http.MethodPost, srv.URL+"/v1/sessions", CreateRequest{Backend: "astrology"}, nil); code != http.StatusBadRequest {
		t.Fatalf("bad backend: status %d", code)
	}

	var created StatusResponse
	doJSON(t, http.MethodPost, srv.URL+"/v1/sessions", CreateRequest{Backend: "bo", Workload: "SVM"}, &created)
	if code := doJSON(t, http.MethodDelete, srv.URL+"/v1/sessions/"+created.ID, nil, nil); code != http.StatusNoContent {
		t.Fatalf("delete: status %d", code)
	}
	if code := doJSON(t, http.MethodPost, srv.URL+"/v1/sessions/"+created.ID+"/suggest", nil, nil); code != http.StatusNotFound {
		t.Fatalf("suggest after delete: status %d", code)
	}
}

func TestHTTPListAndHealth(t *testing.T) {
	srv := newTestServer(t)
	doJSON(t, http.MethodPost, srv.URL+"/v1/sessions", CreateRequest{Backend: "bo", Workload: "SVM"}, nil)

	var list []StatusResponse
	if code := doJSON(t, http.MethodGet, srv.URL+"/v1/sessions", nil, &list); code != http.StatusOK || len(list) != 1 {
		t.Fatalf("list: status %d len %d", code, len(list))
	}
	var health map[string]any
	if code := doJSON(t, http.MethodGet, srv.URL+"/healthz", nil, &health); code != http.StatusOK {
		t.Fatalf("healthz: status %d", code)
	}
}

// TestHTTPMetrics exercises the observability endpoint against a
// persistent manager: session counts by state, observation totals, and the
// store's WAL counters.
func TestHTTPMetrics(t *testing.T) {
	m := newTestManager(t, Options{Workers: 2, Store: store.NewMem()})
	srv := httptest.NewServer(NewHandler(m))
	t.Cleanup(srv.Close)

	var created StatusResponse
	doJSON(t, http.MethodPost, srv.URL+"/v1/sessions", CreateRequest{Backend: "bo", Workload: "SVM", Seed: 1}, &created)
	var sug SuggestResponse
	doJSON(t, http.MethodPost, srv.URL+"/v1/sessions/"+created.ID+"/suggest", nil, &sug)
	res, prof := sim.Run(cluster.A(), mustWorkload(t, "SVM"), conf.Config(sug.Config), 77)
	st := profile.Generate(prof)
	doJSON(t, http.MethodPost, srv.URL+"/v1/sessions/"+created.ID+"/observe",
		ObserveRequest{Config: sug.Config, RuntimeSec: res.RuntimeSec, Aborted: res.Aborted, Stats: &st}, nil)

	var mt struct {
		Sessions        int            `json:"sessions"`
		SessionsByState map[string]int `json:"sessions_by_state"`
		Observations    int64          `json:"observations"`
		Persistence     bool           `json:"persistence"`
		WALEvents       uint64         `json:"wal_events"`
		WALBytes        int64          `json:"wal_bytes"`
	}
	if code := doJSON(t, http.MethodGet, srv.URL+"/v1/metrics", nil, &mt); code != http.StatusOK {
		t.Fatalf("metrics: status %d", code)
	}
	if mt.Sessions != 1 || mt.SessionsByState[StateActive] != 1 {
		t.Fatalf("session counts wrong: %+v", mt)
	}
	if mt.Observations != 1 {
		t.Fatalf("observations = %d, want 1", mt.Observations)
	}
	if !mt.Persistence || mt.WALEvents == 0 || mt.WALBytes == 0 {
		t.Fatalf("store counters missing: %+v", mt)
	}
}

// TestCreateJournalsEveryField: a create body with every CreateRequest
// field set reaches the journaled create record whole, its ID on the record.
func TestCreateJournalsEveryField(t *testing.T) {
	tp := &tape{Store: store.NewMem()}
	srv := httptest.NewServer(NewHandler(newTestManager(t, Options{noPool: true, Store: tp})))
	t.Cleanup(srv.Close)

	_, prof := sim.Run(cluster.B(), mustWorkload(t, "SVM"), conf.Default(), 5)
	st := profile.Generate(prof)
	req := CreateRequest{
		ID: "client-1", Backend: "gbo", Workload: "SVM", Cluster: "B", Mode: "remote", Seed: 9,
		MaxIterations: 3, MaxSteps: 4, WarmStart: true, WarmMaxDistance: 0.3, Stats: &st, DefaultRuntimeSec: 321,
	}
	if code := doJSON(t, http.MethodPost, srv.URL+"/v1/sessions", req, nil); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	if len(tp.events) != 1 || tp.events[0].Type != store.EventCreate || tp.events[0].Session == nil {
		t.Fatalf("journaled %+v, want one create record", tp.events)
	}
	rec := tp.events[0]
	got := rec.Session.Spec
	got.ID = rec.ID
	if !reflect.DeepEqual(got, Spec(req)) {
		t.Fatalf("journaled spec %+v, want %+v", got, Spec(req))
	}
}

func mustWorkload(t *testing.T, name string) workload.Spec {
	t.Helper()
	wl, ok := workload.ByName(name)
	if !ok {
		t.Fatalf("unknown workload %q", name)
	}
	return wl
}

// TestHTTPRepository: GET /v1/repository exposes the model repository's
// entries, fingerprints, and lifecycle counters; WAL segmentation counters
// show up under /v1/metrics.
func TestHTTPRepository(t *testing.T) {
	m := newTestManager(t, Options{Workers: 2, RepoCapacity: 8, Store: store.NewMem()})
	srv := httptest.NewServer(NewHandler(m))
	t.Cleanup(srv.Close)

	var rep RepositoryReport
	if code := doJSON(t, http.MethodGet, srv.URL+"/v1/repository", nil, &rep); code != http.StatusOK {
		t.Fatalf("repository: status %d", code)
	}
	if rep.Size != 0 || rep.Capacity != 8 || len(rep.Entries) != 0 {
		t.Fatalf("empty repository report: %+v", rep)
	}

	// A completed session is harvested into the repository and shows up.
	final := driveHTTPSession(t, srv.URL, CreateRequest{
		Backend: "bo", Workload: "K-means", Cluster: "A", Seed: 5, MaxIterations: 2,
	}, 40)
	if final.State != StateDone {
		t.Fatalf("session not done: %+v", final)
	}
	if code := doJSON(t, http.MethodGet, srv.URL+"/v1/repository", nil, &rep); code != http.StatusOK {
		t.Fatalf("repository: status %d", code)
	}
	if rep.Size != 1 || len(rep.Entries) != 1 {
		t.Fatalf("repository after harvest: %+v", rep)
	}
	mdl := rep.Entries[0]
	if mdl.Workload != "K-means" || mdl.Cluster != "A" || mdl.Points == 0 || len(mdl.Fingerprint) == 0 {
		t.Fatalf("harvested model mangled: %+v", mdl)
	}

	var mt struct {
		RepoEntries  int `json:"repo_entries"`
		RepoCapacity int `json:"repo_capacity"`
		WALSegments  int `json:"wal_segments"`
	}
	if code := doJSON(t, http.MethodGet, srv.URL+"/v1/metrics", nil, &mt); code != http.StatusOK {
		t.Fatalf("metrics: status %d", code)
	}
	if mt.RepoEntries != 1 || mt.RepoCapacity != 8 {
		t.Fatalf("repository counters missing from metrics: %+v", mt)
	}
	if mt.WALSegments == 0 {
		t.Fatalf("segment counters missing from metrics: %+v", mt)
	}
}
