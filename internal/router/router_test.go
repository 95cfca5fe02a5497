package router

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"relm/internal/profile"
	"relm/internal/service"
	"relm/internal/store"
)

// fastCheck are health-check options quick enough for tests.
func fastCheck(backends ...Backend) Options {
	return Options{
		Backends:      backends,
		CheckInterval: 10 * time.Millisecond,
		BackoffMax:    50 * time.Millisecond,
		FailAfter:     2,
		Timeout:       5 * time.Second,
	}
}

// testCluster is two real service managers behind a router.
type testCluster struct {
	managers map[string]*service.Manager
	servers  map[string]*httptest.Server
	router   *Router
	front    *httptest.Server
}

func newTestCluster(t *testing.T, names ...string) *testCluster {
	t.Helper()
	return newTestClusterStores(t, nil, names...)
}

// newTestClusterStores is newTestCluster with a journal under the nodes
// stores names (the others run without one).
func newTestClusterStores(t *testing.T, stores map[string]store.Store, names ...string) *testCluster {
	t.Helper()
	tc := &testCluster{
		managers: make(map[string]*service.Manager),
		servers:  make(map[string]*httptest.Server),
	}
	var backends []Backend
	for _, name := range names {
		m := service.NewManager(service.Options{NodeID: name, Workers: 1, TTL: time.Hour, Store: stores[name]})
		srv := httptest.NewServer(service.NewHandler(m))
		tc.managers[name] = m
		tc.servers[name] = srv
		backends = append(backends, Backend{Name: name, URL: srv.URL})
	}
	r, err := New(fastCheck(backends...))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	tc.router = r
	tc.front = httptest.NewServer(r)
	t.Cleanup(func() {
		tc.front.Close()
		r.Close()
		for _, srv := range tc.servers {
			srv.Close()
		}
		for _, m := range tc.managers {
			m.Close()
		}
	})
	tc.waitHealthy(t, len(names))
	return tc
}

// waitHealthy blocks until the router reports n healthy backends.
func (tc *testCluster) waitHealthy(t *testing.T, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if len(tc.router.eligibleNodes()) == n {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("router never saw %d healthy backends", n)
}

// do issues one request through the router and decodes the JSON response.
func (tc *testCluster) do(t *testing.T, method, path string, body any, out any) (int, http.Header) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			t.Fatalf("marshal body: %v", err)
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequest(method, tc.front.URL+path, rd)
	if err != nil {
		t.Fatalf("new request: %v", err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, path, err)
	}
	defer resp.Body.Close()
	buf, _ := io.ReadAll(resp.Body)
	if out != nil && len(buf) > 0 {
		if err := json.Unmarshal(buf, out); err != nil {
			t.Fatalf("%s %s: decode %q: %v", method, path, buf, err)
		}
	}
	return resp.StatusCode, resp.Header
}

// testStats is a workload fingerprint for warm-start matching.
func testStats() *profile.Stats {
	return &profile.Stats{
		N: 1, MhMB: 8192, CPUAvg: 0.62, DiskAvg: 0.18,
		MiMB: 310, McMB: 2400, MsMB: 180, MuMB: 420,
		P: 2, H: 0.85, S: 0.04, HadFullGC: true, CoresPerNode: 8,
	}
}

// candidates lists nodes in key's rendezvous order by asking next — the
// router's one ranking routine — for each successor in turn; pick is its
// head over the router's own nodes, the request's first stop.
func candidates(nodes []*node, key string) []*node {
	var out []*node
	for n := next(nodes, key, nil); n != nil; n = next(nodes, key, n) {
		out = append(out, n)
	}
	return out
}

func (r *Router) pick(key string) *node { return next(r.nodes, key, nil) }

func TestRendezvousStability(t *testing.T) {
	nodes := []*node{{name: "a", healthy: true}, {name: "b", healthy: true}, {name: "c", healthy: true}}
	keys := make([]string, 500)
	for i := range keys {
		keys[i] = fmt.Sprintf("s-%032x", i)
	}
	owner := func(ns []*node, key string) string { return candidates(ns, key)[0].name }

	before := make(map[string]string, len(keys))
	counts := make(map[string]int)
	for _, k := range keys {
		before[k] = owner(nodes, k)
		counts[before[k]]++
	}
	// Every node owns a reasonable share (binomial around 1/3).
	for _, n := range nodes {
		if counts[n.name] < len(keys)/6 {
			t.Errorf("node %s owns only %d/%d keys — hash badly skewed", n.name, counts[n.name], len(keys))
		}
	}
	// Removing node b remaps exactly b's keys, nothing else.
	survivors := []*node{nodes[0], nodes[2]}
	for _, k := range keys {
		after := owner(survivors, k)
		if before[k] == "b" {
			if after == "b" {
				t.Fatalf("key %s still owned by removed node", k)
			}
		} else if after != before[k] {
			t.Errorf("key %s moved %s→%s though its owner survived", k, before[k], after)
		}
	}
	// Determinism regardless of the node ordering handed in.
	reversed := []*node{nodes[2], nodes[1], nodes[0]}
	for _, k := range keys[:50] {
		if owner(nodes, k) != owner(reversed, k) {
			t.Fatalf("owner of %s depends on node ordering", k)
		}
	}
}

func TestLifecycleThroughRouter(t *testing.T) {
	tc := newTestCluster(t, "a", "b")

	var created service.StatusResponse
	code, hdr := tc.do(t, http.MethodPost, "/v1/sessions",
		map[string]any{"backend": "bo", "workload": "K-means", "seed": 7, "max_iterations": 25}, &created)
	if code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	if created.ID == "" || !strings.HasPrefix(created.ID, "s-") {
		t.Fatalf("create: router did not mint the ID, got %q", created.ID)
	}
	home := hdr.Get("X-Relm-Node")
	if home != "a" && home != "b" {
		t.Fatalf("create: bad X-Relm-Node %q", home)
	}
	if created.Node != home {
		t.Fatalf("create: status node %q != serving node %q", created.Node, home)
	}

	// The session must be reachable where the hash says it lives.
	var sug service.SuggestResponse
	for i := 0; i < 3; i++ {
		code, hdr = tc.do(t, http.MethodPost, "/v1/sessions/"+created.ID+"/suggest", nil, &sug)
		if code != http.StatusOK {
			t.Fatalf("suggest %d: status %d", i, code)
		}
		if got := hdr.Get("X-Relm-Node"); got != home {
			t.Fatalf("suggest routed to %q, home is %q", got, home)
		}
		var st service.StatusResponse
		code, _ = tc.do(t, http.MethodPost, "/v1/sessions/"+created.ID+"/observe",
			map[string]any{"config": sug.Config, "runtime_sec": 120.0 + float64(i)}, &st)
		if code != http.StatusOK {
			t.Fatalf("observe %d: status %d", i, code)
		}
		if st.Evals != i+1 {
			t.Fatalf("observe %d: evals %d", i, st.Evals)
		}
	}

	var hist []service.HistoryJSON
	if code, _ = tc.do(t, http.MethodGet, "/v1/sessions/"+created.ID+"/history", nil, &hist); code != http.StatusOK {
		t.Fatalf("history: status %d", code)
	}
	if len(hist) != 3 {
		t.Fatalf("history: %d entries", len(hist))
	}

	if code, _ = tc.do(t, http.MethodDelete, "/v1/sessions/"+created.ID, nil, nil); code != http.StatusNoContent {
		t.Fatalf("close: status %d", code)
	}
	if code, _ = tc.do(t, http.MethodGet, "/v1/sessions/"+created.ID, nil, nil); code != http.StatusNotFound {
		t.Fatalf("get after close: status %d, want 404", code)
	}
}

func TestListAndMetricsMerge(t *testing.T) {
	tc := newTestCluster(t, "a", "b")

	// Create sessions until both nodes own at least one.
	seen := map[string]int{}
	for i := 0; len(seen) < 2 && i < 64; i++ {
		var st service.StatusResponse
		code, _ := tc.do(t, http.MethodPost, "/v1/sessions",
			map[string]any{"backend": "bo", "workload": "PageRank", "seed": i}, &st)
		if code != http.StatusCreated {
			t.Fatalf("create %d: status %d", i, code)
		}
		seen[st.Node]++
	}
	if len(seen) < 2 {
		t.Fatalf("64 creates never landed on both nodes: %v", seen)
	}
	total := seen["a"] + seen["b"]

	var list []map[string]any
	if code, _ := tc.do(t, http.MethodGet, "/v1/sessions", nil, &list); code != http.StatusOK {
		t.Fatalf("list: status %d", code)
	}
	if len(list) != total {
		t.Fatalf("merged list has %d sessions, created %d", len(list), total)
	}
	perNode := map[string]int{}
	for _, st := range list {
		node, _ := st["node"].(string)
		perNode[node]++
	}
	if perNode["a"] != seen["a"] || perNode["b"] != seen["b"] {
		t.Fatalf("merged list per-node %v != created %v", perNode, seen)
	}

	var mt struct {
		Nodes   int                        `json:"nodes"`
		Totals  map[string]float64         `json:"totals"`
		PerNode map[string]json.RawMessage `json:"per_node"`
	}
	if code, _ := tc.do(t, http.MethodGet, "/v1/metrics", nil, &mt); code != http.StatusOK {
		t.Fatalf("metrics: status %d", code)
	}
	if mt.Nodes != 2 || len(mt.PerNode) != 2 {
		t.Fatalf("metrics merged %d nodes, per_node %d", mt.Nodes, len(mt.PerNode))
	}
	if int(mt.Totals["sessions"]) != total {
		t.Fatalf("metrics totals sessions %.0f, want %d", mt.Totals["sessions"], total)
	}
}

func TestMergePartialFailure(t *testing.T) {
	// Node c answers health checks but fails everything else. The metrics
	// merge must degrade gracefully — 200 with the healthy node's numbers,
	// partial: true, and per-node failure detail — while the session
	// listing stays all-or-nothing and answers 502 with the same detail.
	broken := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			w.Write([]byte(`{"ok":true,"node":"c","sessions":0}`))
			return
		}
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer broken.Close()

	m := service.NewManager(service.Options{NodeID: "a", Workers: 1, TTL: time.Hour})
	defer m.Close()
	good := httptest.NewServer(service.NewHandler(m))
	defer good.Close()

	r, err := New(fastCheck(Backend{Name: "a", URL: good.URL}, Backend{Name: "c", URL: broken.URL}))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer r.Close()
	front := httptest.NewServer(r)
	defer front.Close()

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && len(r.eligibleNodes()) < 2 {
		time.Sleep(5 * time.Millisecond)
	}

	resp, err := http.Get(front.URL + "/v1/metrics")
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics with one broken backend: status %d, want 200 partial", resp.StatusCode)
	}
	var mt struct {
		Nodes   int                        `json:"nodes"`
		Partial bool                       `json:"partial"`
		Failed  map[string]string          `json:"failed"`
		PerNode map[string]json.RawMessage `json:"per_node"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&mt); err != nil {
		t.Fatalf("decode metrics body: %v", err)
	}
	if !mt.Partial {
		t.Fatalf("partial flag not set: %+v", mt)
	}
	if mt.Nodes != 1 {
		t.Fatalf("merged nodes %d, want 1 (only the healthy backend)", mt.Nodes)
	}
	if mt.Failed["c"] == "" || !strings.Contains(mt.Failed["c"], "500") {
		t.Fatalf("failed map lacks detail for c: %+v", mt.Failed)
	}
	if _, ok := mt.Failed["a"]; ok {
		t.Fatalf("healthy node a blamed in failed map: %+v", mt.Failed)
	}
	if _, ok := mt.PerNode["a"]; !ok {
		t.Fatalf("healthy node a missing from per_node: %+v", mt)
	}

	// The session listing keeps the all-or-nothing contract.
	resp2, err := http.Get(front.URL + "/v1/sessions")
	if err != nil {
		t.Fatalf("list: %v", err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadGateway {
		t.Fatalf("list with broken backend: status %d, want 502", resp2.StatusCode)
	}
	var detail struct {
		Error string            `json:"error"`
		Nodes map[string]string `json:"nodes"`
	}
	if err := json.NewDecoder(resp2.Body).Decode(&detail); err != nil {
		t.Fatalf("decode 502 body: %v", err)
	}
	if detail.Nodes["c"] == "" || !strings.Contains(detail.Nodes["c"], "500") {
		t.Fatalf("502 body lacks per-node detail for c: %+v", detail)
	}
}

func TestKilledBackendIsRoutedAround(t *testing.T) {
	tc := newTestCluster(t, "a", "b")

	// Kill b outright — no drain, no goodbye.
	tc.servers["b"].CloseClientConnections()
	tc.servers["b"].Close()
	tc.waitHealthy(t, 1)

	for i := 0; i < 4; i++ {
		var st service.StatusResponse
		code, _ := tc.do(t, http.MethodPost, "/v1/sessions",
			map[string]any{"backend": "bo", "workload": "PageRank", "seed": i}, &st)
		if code != http.StatusCreated {
			t.Fatalf("create %d after kill: status %d", i, code)
		}
		if st.Node != "a" {
			t.Fatalf("create %d landed on dead node %q", i, st.Node)
		}
	}
	// Merged reads exclude the dead node instead of failing.
	var list []map[string]any
	if code, _ := tc.do(t, http.MethodGet, "/v1/sessions", nil, &list); code != http.StatusOK {
		t.Fatalf("list after kill: status %d", code)
	}
	var health struct {
		OK      bool `json:"ok"`
		Healthy int  `json:"healthy"`
	}
	if code, _ := tc.do(t, http.MethodGet, "/healthz", nil, &health); code != http.StatusOK || health.Healthy != 1 {
		t.Fatalf("healthz after kill: status %d healthy %d", code, health.Healthy)
	}
}

// TestMisplacedSessionFoundByFallbackWalk: a session can live on a lower
// rendezvous candidate (placed while the owner was down, owner since
// recovered). The router must find it by walking candidates on 404 rather
// than stranding it behind the recovered owner.
func TestMisplacedSessionFoundByFallbackWalk(t *testing.T) {
	tc := newTestCluster(t, "a", "b")

	// An ID whose rendezvous owner is a, created directly on b — exactly
	// the state left behind by a create that failed over while a was out.
	var id string
	for i := 0; ; i++ {
		id = fmt.Sprintf("fallback-%d", i)
		if tc.router.pick(id).name == "a" {
			break
		}
	}
	if _, err := tc.managers["b"].Create(service.Spec{ID: id, Backend: "bo", Workload: "SVM", MaxIterations: 20}); err != nil {
		t.Fatalf("create on b: %v", err)
	}

	var st service.StatusResponse
	code, hdr := tc.do(t, http.MethodGet, "/v1/sessions/"+id, nil, &st)
	if code != http.StatusOK {
		t.Fatalf("misplaced session: status %d, want 200 via fallback walk", code)
	}
	if got := hdr.Get("X-Relm-Node"); got != "b" {
		t.Fatalf("misplaced session served by %q, want b", got)
	}
	var sug service.SuggestResponse
	if code, _ := tc.do(t, http.MethodPost, "/v1/sessions/"+id+"/suggest", nil, &sug); code != http.StatusOK {
		t.Fatalf("suggest on misplaced session: status %d", code)
	}
	// A genuinely unknown ID still 404s after the full walk.
	if code, _ := tc.do(t, http.MethodGet, "/v1/sessions/never-created", nil, nil); code != http.StatusNotFound {
		t.Fatalf("unknown session: status %d, want 404", code)
	}
}

// TestNoBackendsReadsAre503: with zero eligible nodes, merged reads must
// say "cluster unreachable", not "cluster empty".
func TestNoBackendsReadsAre503(t *testing.T) {
	tc := newTestCluster(t, "a")
	tc.servers["a"].CloseClientConnections()
	tc.servers["a"].Close()
	tc.waitHealthy(t, 0)

	for _, ep := range []string{"/v1/sessions", "/v1/metrics", "/v1/repository", "/v1/repository/export", "/healthz"} {
		if code, _ := tc.do(t, http.MethodGet, ep, nil, nil); code != http.StatusServiceUnavailable {
			t.Errorf("GET %s with no backends: status %d, want 503", ep, code)
		}
	}
	if code, _ := tc.do(t, http.MethodGet, "/v1/sessions/some-id", nil, nil); code != http.StatusServiceUnavailable {
		t.Errorf("session route with no backends: status %d, want 503", code)
	}
}

func TestClientSuppliedIDAndConflict(t *testing.T) {
	tc := newTestCluster(t, "a", "b")

	var st service.StatusResponse
	code, _ := tc.do(t, http.MethodPost, "/v1/sessions",
		map[string]any{"id": "my-session", "backend": "bo", "workload": "PageRank"}, &st)
	if code != http.StatusCreated || st.ID != "my-session" {
		t.Fatalf("create with client ID: status %d id %q", code, st.ID)
	}
	code, _ = tc.do(t, http.MethodPost, "/v1/sessions",
		map[string]any{"id": "my-session", "backend": "bo", "workload": "PageRank"}, nil)
	if code != http.StatusConflict {
		t.Fatalf("duplicate ID: status %d, want 409", code)
	}
}
