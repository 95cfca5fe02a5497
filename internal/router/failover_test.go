package router

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"relm/internal/replica"
	"relm/internal/service"
	"relm/internal/store"
)

// --- circuit breaker unit --------------------------------------------------

func TestBreakerStateMachine(t *testing.T) {
	base, _ := url.Parse("http://x.invalid")
	n := &node{name: "x", base: base}
	now := time.Unix(1000, 0)
	const threshold = 3
	probe, probeMax := time.Second, 8*time.Second

	// Closed admits freely; failures below the threshold keep it closed.
	for i := 0; i < threshold-1; i++ {
		if !n.brAcquire(now) {
			t.Fatalf("closed breaker refused request %d", i)
		}
		if st := n.brFailure(threshold, probe, probeMax, now); st != -1 {
			t.Fatalf("failure %d tripped the breaker early: %v", i, st)
		}
	}
	if !n.brAvailable(now) {
		t.Fatal("breaker unavailable while still closed")
	}
	// The threshold-th consecutive failure opens it.
	if !n.brAcquire(now) {
		t.Fatal("closed breaker refused the tripping request")
	}
	if st := n.brFailure(threshold, probe, probeMax, now); st != brOpen {
		t.Fatalf("threshold failure returned %v, want open", st)
	}
	if n.brAvailable(now) || n.brAcquire(now) {
		t.Fatal("open breaker admitted a request before the probe delay")
	}

	// After the probe delay: exactly one in-flight probe.
	later := now.Add(probe + time.Millisecond)
	if !n.brAvailable(later) {
		t.Fatal("breaker not available after the probe delay")
	}
	if !n.brAcquire(later) {
		t.Fatal("probe not admitted after the delay")
	}
	if n.brAcquire(later) || n.brAvailable(later) {
		t.Fatal("second concurrent probe admitted")
	}
	// A failed probe re-opens with a doubled delay.
	if st := n.brFailure(threshold, probe, probeMax, later); st != brOpen {
		t.Fatalf("failed probe returned %v, want open", st)
	}
	if n.brDelay != 2*probe {
		t.Fatalf("probe delay after one failed probe: %v, want %v", n.brDelay, 2*probe)
	}
	if n.brAcquire(later.Add(probe)) {
		t.Fatal("re-opened breaker ignored the doubled delay")
	}
	// Doubling is capped at probeMax.
	at := later
	for i := 0; i < 8; i++ {
		at = at.Add(n.brDelay + time.Millisecond)
		if !n.brAcquire(at) {
			t.Fatalf("probe %d not admitted", i)
		}
		n.brFailure(threshold, probe, probeMax, at)
	}
	if n.brDelay != probeMax {
		t.Fatalf("probe delay not capped: %v, want %v", n.brDelay, probeMax)
	}
	if got := n.snapshot(); got.Breaker != "open" || got.BreakerOpens == 0 {
		t.Fatalf("snapshot of an open breaker: %+v", got)
	}

	// A served probe closes it and resets the failure history.
	at = at.Add(n.brDelay + time.Millisecond)
	if !n.brAcquire(at) {
		t.Fatal("final probe not admitted")
	}
	if !n.brSuccess() {
		t.Fatal("closing success not reported as a transition")
	}
	if got := n.snapshot(); got.Breaker != "closed" {
		t.Fatalf("after success: %+v", got)
	}
	if st := n.brFailure(threshold, probe, probeMax, at); st != -1 {
		t.Fatal("failure count survived the close")
	}
}

// --- 503-draining retry ----------------------------------------------------

// newSlowCheckCluster is newTestCluster with health checks effectively
// frozen after the initial round, so the router keeps routing to a node
// whose state changed behind its back.
func newSlowCheckCluster(t *testing.T, names ...string) *testCluster {
	t.Helper()
	tc := &testCluster{
		managers: make(map[string]*service.Manager),
		servers:  make(map[string]*httptest.Server),
	}
	var backends []Backend
	for _, name := range names {
		m := service.NewManager(service.Options{NodeID: name, Workers: 1, TTL: time.Hour})
		srv := httptest.NewServer(service.NewHandler(m))
		tc.managers[name] = m
		tc.servers[name] = srv
		backends = append(backends, Backend{Name: name, URL: srv.URL})
	}
	opts := fastCheck(backends...)
	opts.CheckInterval = time.Hour // first check fires immediately, then never again
	opts.BackoffMax = time.Hour
	r, err := New(opts)
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

// TestCreateRetriesDrainingBackend: a backend that started draining on its
// own (the router has not health-checked it since) answers creates with
// 503 draining; the router must spend retry budget on the next candidate
// instead of surfacing the 503, and account the retry per node.
func TestCreateRetriesDrainingBackend(t *testing.T) {
	tc := newSlowCheckCluster(t, "a", "b")
	tc.managers["a"].Drain() // behind the router's back

	for i := 0; i < 12; i++ {
		var st service.StatusResponse
		code, _ := tc.do(t, http.MethodPost, "/v1/sessions",
			map[string]any{"backend": "bo", "workload": "PageRank", "seed": i}, &st)
		if code != http.StatusCreated {
			t.Fatalf("create %d: status %d (draining backend leaked through)", i, code)
		}
		if st.Node != "b" {
			t.Fatalf("create %d landed on %q, want the non-draining node", i, st.Node)
		}
	}

	// The retries are visible per node in /v1/cluster; the breaker stayed
	// closed — draining is not a transport failure.
	var cl struct {
		Nodes []NodeStatus `json:"nodes"`
	}
	if code, _ := tc.do(t, http.MethodGet, "/v1/cluster", nil, &cl); code != http.StatusOK {
		t.Fatalf("cluster: status %d", code)
	}
	for _, n := range cl.Nodes {
		if n.Name == "a" {
			if n.Retries == 0 {
				t.Fatalf("draining node shows no retried-away requests: %+v", n)
			}
			if n.Breaker != "closed" {
				t.Fatalf("503-draining answers tripped the breaker: %+v", n)
			}
		}
	}
	if got := tc.managers["b"].Len(); got != 12 {
		t.Fatalf("survivor holds %d sessions, want 12", got)
	}
}

// --- breaker end-to-end ----------------------------------------------------

// TestBreakerIsolatesBlackholedBackend: a backend whose /healthz answers
// but whose data path hangs (black hole) must be cut off by the breaker
// after BreakerThreshold timed-out requests — and recovered through the
// half-open probe once it serves again.
func TestBreakerIsolatesBlackholedBackend(t *testing.T) {
	mb := service.NewManager(service.Options{NodeID: "b", Workers: 1, TTL: time.Hour})
	defer mb.Close()
	realB := service.NewHandler(mb)
	var blackhole atomic.Bool
	blackhole.Store(true)
	srvB := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if blackhole.Load() && req.URL.Path != "/healthz" {
			time.Sleep(500 * time.Millisecond) // >> router timeout
		}
		realB.ServeHTTP(w, req)
	}))
	defer srvB.Close()

	ma := service.NewManager(service.Options{NodeID: "a", Workers: 1, TTL: time.Hour})
	defer ma.Close()
	srvA := httptest.NewServer(service.NewHandler(ma))
	defer srvA.Close()

	opts := fastCheck(Backend{Name: "a", URL: srvA.URL}, Backend{Name: "b", URL: srvB.URL})
	opts.Timeout = 100 * time.Millisecond
	opts.BreakerThreshold = 2
	opts.BreakerProbe = 50 * time.Millisecond
	opts.BreakerProbeMax = 200 * time.Millisecond
	r, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	front := httptest.NewServer(r)
	defer front.Close()
	tc := &testCluster{router: r, front: front}
	tc.waitHealthy(t, 2)

	// Metrics fan-out touches every node; each round burns one timeout on
	// the black hole and answers 200 partial with b in the failed map —
	// loud, but not blinding monitoring to the healthy node — until the
	// breaker opens; then the node is excluded like an unhealthy one.
	b := r.nodeByName("b")
	sawPartial := false
	deadline := time.Now().Add(5 * time.Second)
	for b.snapshot().Breaker != "open" {
		if time.Now().After(deadline) {
			t.Fatalf("breaker never opened on the black hole: %+v", b.snapshot())
		}
		var pm struct {
			Partial bool              `json:"partial"`
			Failed  map[string]string `json:"failed"`
		}
		code, _ := tc.do(t, http.MethodGet, "/v1/metrics", nil, &pm)
		sawPartial = sawPartial || (code == http.StatusOK && pm.Partial && pm.Failed["b"] != "")
		time.Sleep(20 * time.Millisecond) // let the health check re-admit b between rounds
	}
	if !sawPartial {
		t.Fatal("black-holed fan-outs never surfaced a flagged partial merge")
	}
	if got := b.snapshot(); got.BreakerOpens != 1 {
		t.Fatalf("breaker opens: %+v", got)
	}
	if code, _ := tc.do(t, http.MethodGet, "/v1/metrics", nil, nil); code != http.StatusOK {
		t.Fatal("fan-out still failing with the black hole isolated")
	}
	if !b.eligible() {
		t.Fatal("healthz still answers; the breaker, not the health check, must be what isolates the node")
	}

	// With the breaker open the node is skipped for free: a burst of
	// creates lands on the healthy node without burning timeouts.
	start := time.Now()
	for i := 0; i < 6; i++ {
		var st service.StatusResponse
		code, _ := tc.do(t, http.MethodPost, "/v1/sessions",
			map[string]any{"backend": "bo", "workload": "PageRank", "seed": i}, &st)
		if code != http.StatusCreated || st.Node != "a" {
			t.Fatalf("create %d: status %d on %q", i, code, st.Node)
		}
	}
	if elapsed := time.Since(start); elapsed > 5*opts.Timeout {
		t.Fatalf("creates took %v — the open breaker did not short-circuit the black hole", elapsed)
	}

	// The router fan-out surfaces breaker counters cluster-wide.
	var mt map[string]any
	if code, _ := tc.do(t, http.MethodGet, "/v1/metrics", nil, &mt); code != http.StatusOK {
		t.Fatal("metrics")
	}
	rt, _ := mt["router"].(map[string]any)
	if rt == nil || rt["breaker_opens"].(float64) < 1 || rt["breakers_open"].(float64) < 1 {
		t.Fatalf("router metrics missing breaker counters: %v", mt["router"])
	}

	// Recovery: unplug the black hole; the half-open probe closes the
	// breaker without any operator action.
	blackhole.Store(false)
	deadline = time.Now().Add(5 * time.Second)
	for {
		tc.do(t, http.MethodGet, "/v1/metrics", nil, nil) // probe carrier
		if b.snapshot().Breaker == "closed" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("breaker never closed after recovery: %+v", b.snapshot())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// --- automatic fail-over ---------------------------------------------------

// promoCluster is three journaled backends with WAL replication between
// them behind a promoting router. The httptest servers are created before
// the managers (the replica sets need every peer's URL), with the handler
// swapped in once the node exists.
type promoCluster struct {
	names    []string
	handlers map[string]*atomic.Value // of http.Handler
	servers  map[string]*httptest.Server
	stores   map[string]*store.File
	dirs     map[string]string // each node's store directory
	managers map[string]*service.Manager
	sets     map[string]*replica.Set
	router   *Router
	front    *httptest.Server
	stopOnce sync.Once
}

// newPromoCluster journals each node with fo and ships its log every
// ship (time.Hour: only when a test calls SyncNow).
func newPromoCluster(t *testing.T, fo store.FileOptions, ship time.Duration, names ...string) *promoCluster {
	t.Helper()
	pc := &promoCluster{
		names:    names,
		handlers: make(map[string]*atomic.Value),
		servers:  make(map[string]*httptest.Server),
		stores:   make(map[string]*store.File),
		dirs:     make(map[string]string),
		managers: make(map[string]*service.Manager),
		sets:     make(map[string]*replica.Set),
	}
	for _, name := range names {
		hv := &atomic.Value{}
		pc.handlers[name] = hv
		pc.servers[name] = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			if h, ok := hv.Load().(http.Handler); ok {
				h.ServeHTTP(w, req)
				return
			}
			http.Error(w, "starting", http.StatusServiceUnavailable)
		}))
	}
	var backends []Backend
	for _, name := range names {
		var peers []replica.Peer
		for _, other := range names {
			if other != name {
				peers = append(peers, replica.Peer{Name: other, URL: pc.servers[other].URL})
			}
		}
		dir := t.TempDir()
		st, err := store.OpenFile(dir, fo)
		if err != nil {
			t.Fatal(err)
		}
		pc.stores[name], pc.dirs[name] = st, dir
		set, err := replica.New(replica.Options{
			Self: name, Peers: peers, Dir: t.TempDir(),
			Source: st, Interval: ship,
		})
		if err != nil {
			t.Fatal(err)
		}
		m, err := service.Open(service.Options{NodeID: name, Workers: 1, TTL: time.Hour, Store: st, Replica: set})
		if err != nil {
			t.Fatal(err)
		}
		pc.sets[name] = set
		pc.managers[name] = m
		pc.handlers[name].Store(http.Handler(service.NewHandler(m)))
		backends = append(backends, Backend{Name: name, URL: pc.servers[name].URL})
	}
	opts := fastCheck(backends...)
	opts.Promote = true
	r, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	pc.router = r
	pc.front = httptest.NewServer(r)
	t.Cleanup(pc.crash)
	tc := &testCluster{router: r, front: pc.front}
	tc.waitHealthy(t, len(names))
	return pc
}

// crash stops every process of the cluster the way kill -9 would: each
// store closes before its manager, so no shutdown snapshot folds what a
// manager holds in memory into its directory — what survives is what was
// journaled. Later calls do nothing.
func (pc *promoCluster) crash() {
	pc.stopOnce.Do(func() {
		pc.front.Close()
		pc.router.Close()
		for _, srv := range pc.servers {
			srv.Close()
		}
		for _, set := range pc.sets {
			set.Close()
		}
		for _, st := range pc.stores {
			st.Close()
		}
		for _, m := range pc.managers {
			m.Close()
		}
	})
}

func (pc *promoCluster) do(t *testing.T, method, path string, body, out any) (int, http.Header) {
	t.Helper()
	tc := &testCluster{front: pc.front}
	return tc.do(t, method, path, body, out)
}

// TestAutomaticFailover is the kill-without-drain path end to end: a
// primary dies, the router promotes its WAL replica on a survivor, and
// every non-terminal session resumes under its original ID with the full
// history — the next suggestion identical to what the dead node would
// have produced.
func TestAutomaticFailover(t *testing.T) {
	pc := newPromoCluster(t, store.FileOptions{SegmentBytes: 4096}, time.Hour, "a", "b", "c")

	// Sessions through the router until every node owns at least one.
	type sess struct {
		id, node string
		history  []service.HistoryJSON
		nextSug  string
	}
	var sessions []sess
	byNode := map[string]int{}
	for i := 0; len(byNode) < 3 || len(sessions) < 5; i++ {
		if i > 64 {
			t.Fatalf("placement never spread over 3 nodes: %v", byNode)
		}
		var st service.StatusResponse
		code, _ := pc.do(t, http.MethodPost, "/v1/sessions",
			map[string]any{"backend": "bo", "workload": "K-means", "seed": i, "max_iterations": 30}, &st)
		if code != http.StatusCreated {
			t.Fatalf("create %d: status %d", i, code)
		}
		sessions = append(sessions, sess{id: st.ID, node: st.Node})
		byNode[st.Node]++
	}
	// Drive each session a few suggest→observe rounds, then leave a
	// suggestion outstanding — the kill interrupts mid-protocol.
	for si := range sessions {
		s := &sessions[si]
		for step := 0; step < 3; step++ {
			var sug service.SuggestResponse
			if code, _ := pc.do(t, http.MethodPost, "/v1/sessions/"+s.id+"/suggest", nil, &sug); code != http.StatusOK {
				t.Fatalf("suggest %s: status %d", s.id, code)
			}
			if code, _ := pc.do(t, http.MethodPost, "/v1/sessions/"+s.id+"/observe",
				map[string]any{"config": sug.Config, "runtime_sec": 300.0 - float64(10*si+step)}, nil); code != http.StatusOK {
				t.Fatalf("observe %s: status %d", s.id, code)
			}
		}
		var sug service.SuggestResponse
		if code, _ := pc.do(t, http.MethodPost, "/v1/sessions/"+s.id+"/suggest", nil, &sug); code != http.StatusOK {
			t.Fatalf("final suggest %s: status %d", s.id, code)
		}
		s.nextSug = fmt.Sprintf("%+v", sug.Config)
		if code, _ := pc.do(t, http.MethodGet, "/v1/sessions/"+s.id+"/history", nil, &s.history); code != http.StatusOK {
			t.Fatalf("history %s: status %d", s.id, code)
		}
	}

	// Pick the victim, ship its WAL to its follower, then kill -9: close
	// the server so every connection to it dies. No drain, no warning.
	victim := sessions[0].node
	if err := pc.sets[victim].SyncNow(); err != nil {
		t.Fatalf("pre-kill replication sync: %v", err)
	}
	pc.servers[victim].Close()

	// The router must notice the death and promote — no operator action.
	// Wait for last_promotion, not promotions_total: the counter ticks at
	// the fence (point of no return) but the report is only stored once
	// every session has been adopted and replayed on its successor.
	deadline := time.Now().Add(10 * time.Second)
	for {
		var raw map[string]any
		pc.do(t, http.MethodGet, "/v1/cluster", nil, &raw)
		if last, ok := raw["last_promotion"].(map[string]any); ok && last["node"] == victim {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no automatic promotion after victim death: %v", raw)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Every session — including the dead node's — answers under its
	// original ID with its exact history and the exact next suggestion.
	for _, s := range sessions {
		var hist []service.HistoryJSON
		code, hdr := pc.do(t, http.MethodGet, "/v1/sessions/"+s.id+"/history", nil, &hist)
		if code != http.StatusOK {
			t.Fatalf("post-failover history %s (was on %s): status %d", s.id, s.node, code)
		}
		if s.node == victim && hdr.Get("X-Relm-Node") == victim {
			t.Fatalf("session %s still served by the dead node", s.id)
		}
		if !reflect.DeepEqual(hist, s.history) {
			t.Fatalf("session %s (was on %s): history changed across fail-over\n pre: %+v\npost: %+v",
				s.id, s.node, s.history, hist)
		}
		var sug service.SuggestResponse
		if code, _ := pc.do(t, http.MethodPost, "/v1/sessions/"+s.id+"/suggest", nil, &sug); code != http.StatusOK {
			t.Fatalf("post-failover suggest %s: status %d", s.id, code)
		}
		if got := fmt.Sprintf("%+v", sug.Config); got != s.nextSug {
			t.Fatalf("session %s: successor suggests %s, the dead node would have suggested %s", s.id, got, s.nextSug)
		}
	}

	// The dead node is marked promoted (sticky — a revived process holds
	// stale state), and the report names it.
	var raw map[string]any
	pc.do(t, http.MethodGet, "/v1/cluster", nil, &raw)
	last, _ := raw["last_promotion"].(map[string]any)
	if last == nil || last["node"] != victim {
		t.Fatalf("last_promotion: %v", raw["last_promotion"])
	}
	nodes, _ := raw["nodes"].([]any)
	foundPromoted := false
	for _, nv := range nodes {
		n, _ := nv.(map[string]any)
		if n["name"] == victim {
			foundPromoted, _ = n["promoted"].(bool)
		}
	}
	if !foundPromoted {
		t.Fatalf("dead node not marked promoted in /v1/cluster: %v", raw["nodes"])
	}

	// Router metrics fan-out: promotions and replication counters from
	// the survivors are merged in.
	var mt map[string]any
	if code, _ := pc.do(t, http.MethodGet, "/v1/metrics", nil, &mt); code != http.StatusOK {
		t.Fatal("metrics after failover")
	}
	rt, _ := mt["router"].(map[string]any)
	if rt == nil || rt["promotions_total"].(float64) < 1 {
		t.Fatalf("router metrics missing promotions: %v", mt["router"])
	}
	totals, _ := mt["totals"].(map[string]any)
	if v, ok := totals["replica_promotions"].(float64); !ok || v < 1 {
		t.Fatalf("merged metrics missing replica_promotions: %v", totals)
	}
	if v, ok := totals["replica_ingests"].(float64); !ok || v < 1 {
		t.Fatalf("merged metrics missing replica_ingests: %v", totals)
	}
}
