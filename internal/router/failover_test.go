package router

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"relm/internal/fault"
	"relm/internal/replica"
	"relm/internal/service"
	"relm/internal/store"
)

// --- the health loop --------------------------------------------------------

// newTickCluster is a router over one backend whose health loop checks once
// at start and then sleeps for an hour, so a test drives tick by hand.
func newTickCluster(t *testing.T, b Backend) (*Router, *node) {
	t.Helper()
	opts := fastCheck(b)
	opts.CheckInterval = time.Hour
	opts.BackoffMax = 64 * time.Hour
	r, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	(&testCluster{router: r}).waitHealthy(t, 1)
	return r, r.nodes[0]
}

// TestHealthTick: one health-loop tick of a node a call failed on. While its
// /healthz answers and its data-path read does not, it stays held out —
// live, so never a promotion candidate — and the delay to the next tick
// doubles from CheckInterval; once both answer it is admitted with its
// failures forgotten.
func TestHealthTick(t *testing.T) {
	r, n := newTickCluster(t, fakeBackend(t, "x", func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte(`{}`))
	}))
	t.Cleanup(fault.DisarmAll)
	if err := fault.Apply(fault.Schedule{Seed: 1, Rules: []fault.Rule{
		{Point: "router.proxy", Action: "error", Match: "x", Count: 100},
	}}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.call(context.Background(), n, r.opts.Timeout, http.MethodGet, "/v1/sessions", nil); err == nil {
		t.Fatal("partitioned call answered")
	}
	prev := r.opts.CheckInterval
	for i := 0; i < 3; i++ {
		delay := r.tick(n)
		if st := n.snapshot(); !st.Healthy || !st.Suspect || n.eligible() {
			t.Fatalf("tick %d: probe passes, data check fails: %+v, want healthy, suspect and held out", i, st)
		}
		if delay != 2*prev {
			t.Fatalf("tick %d: next check in %v, want %v (double the last)", i, delay, 2*prev)
		}
		prev = delay
	}
	fault.DisarmAll()
	if delay := r.tick(n); delay != r.opts.CheckInterval {
		t.Fatalf("admitting tick: next check in %v, want %v", delay, r.opts.CheckInterval)
	}
	if st := n.snapshot(); !n.eligible() || st.Fails != 0 || st.LastError != "" {
		t.Fatalf("both checks pass: %+v, want admitted with fails 0", st)
	}
}

// TestProbeOnlyFailuresNeedNoDataCheck: a node whose only failures were
// probes — it died, no call failed on it, it came back — is readmitted by
// its first passing probe, with no data-path read: an ordinary restart
// recovers no slower than the probe.
func TestProbeOnlyFailuresNeedNoDataCheck(t *testing.T) {
	var down atomic.Bool
	var reads atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		if down.Load() {
			http.Error(w, "down", http.StatusServiceUnavailable)
			return
		}
		w.Write([]byte(`{"ok":true,"node":"x"}`))
	})
	mux.HandleFunc("/", func(http.ResponseWriter, *http.Request) { reads.Add(1) })
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	r, n := newTickCluster(t, Backend{Name: "x", URL: srv.URL})

	down.Store(true)
	for i := 0; i < r.opts.FailAfter; i++ {
		r.tick(n)
	}
	if st := n.snapshot(); st.Healthy || st.Suspect {
		t.Fatalf("after %d failed probes: %+v, want down and not suspect", r.opts.FailAfter, st)
	}
	down.Store(false)
	if delay := r.tick(n); delay != r.opts.CheckInterval || !n.eligible() {
		t.Fatalf("first passing probe: %+v, next check in %v; want admitted, next in %v", n.snapshot(), delay, r.opts.CheckInterval)
	}
	if got := reads.Load(); got != 0 {
		t.Fatalf("readmission sent %d data-path reads, want 0", got)
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
		m := openManager(t, service.Options{NodeID: name, Workers: 1, TTL: time.Hour})
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

	// The retries are visible per node in /v1/cluster; the node is not
	// suspect — draining is not a transport failure.
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
			if n.Suspect {
				t.Fatalf("503-draining answers made the node suspect: %+v", n)
			}
		}
	}
	if got := tc.managers["b"].Len(); got != 12 {
		t.Fatalf("survivor holds %d sessions, want 12", got)
	}
}

// --- black hole ---------------------------------------------------------------

// blackholeCluster is a healthy node a and a node b whose /healthz answers
// but whose data path hangs five times the router's timeout while blackhole
// is set. creates counts the session creates that reached b.
type blackholeCluster struct {
	*testCluster
	b         *node
	blackhole atomic.Bool
	creates   atomic.Int64
}

func newBlackholeCluster(t *testing.T) *blackholeCluster {
	t.Helper()
	bc := &blackholeCluster{}
	bc.blackhole.Store(true)
	mb := openManager(t, service.Options{NodeID: "b", Workers: 1, TTL: time.Hour})
	t.Cleanup(mb.Close)
	realB := service.NewHandler(mb)
	srvB := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method == http.MethodPost && req.URL.Path == "/v1/sessions" {
			bc.creates.Add(1)
		}
		if bc.blackhole.Load() && req.URL.Path != "/healthz" {
			time.Sleep(500 * time.Millisecond) // >> router timeout
		}
		realB.ServeHTTP(w, req)
	}))
	t.Cleanup(srvB.Close)

	ma := openManager(t, service.Options{NodeID: "a", Workers: 1, TTL: time.Hour})
	t.Cleanup(ma.Close)
	srvA := httptest.NewServer(service.NewHandler(ma))
	t.Cleanup(srvA.Close)

	opts := fastCheck(Backend{Name: "a", URL: srvA.URL}, Backend{Name: "b", URL: srvB.URL})
	opts.Timeout = 100 * time.Millisecond
	r, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	front := httptest.NewServer(r)
	t.Cleanup(front.Close)
	bc.testCluster = &testCluster{router: r, front: front}
	bc.b = r.nodeByName("b")
	bc.waitHealthy(t, 2)
	return bc
}

// create places one session through the router and returns its node.
func (bc *blackholeCluster) create(t *testing.T) string {
	t.Helper()
	var st service.StatusResponse
	if code, _ := bc.do(t, http.MethodPost, "/v1/sessions",
		map[string]any{"backend": "bo", "workload": "PageRank"}, &st); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	return st.Node
}

// TestDataCheckIsolatesBlackholedBackend: the first call that times out on
// a black hole holds it out; it stays out while its /healthz passes,
// because the health loop's data-path read keeps timing out; and once
// unplugged it is readmitted by that read with no operator action.
func TestDataCheckIsolatesBlackholedBackend(t *testing.T) {
	bc := newBlackholeCluster(t)
	b := bc.b

	// The metrics fan-out touches every eligible node: the round that meets
	// the black hole burns one timeout and answers 200 partial with b in the
	// failed map — loud, but not blinding monitoring to the healthy node.
	sawPartial := false
	deadline := time.Now().Add(5 * time.Second)
	for !b.snapshot().Suspect {
		if time.Now().After(deadline) {
			t.Fatalf("the black hole was never held out: %+v", b.snapshot())
		}
		var pm struct {
			Partial bool              `json:"partial"`
			Failed  map[string]string `json:"failed"`
		}
		code, _ := bc.do(t, http.MethodGet, "/v1/metrics", nil, &pm)
		sawPartial = sawPartial || (code == http.StatusOK && pm.Partial && pm.Failed["b"] != "")
	}
	if !sawPartial {
		t.Fatal("black-holed fan-outs never surfaced a flagged partial merge")
	}
	if got := b.snapshot(); !got.Healthy || !got.Suspect {
		t.Fatalf("black hole %+v: want healthy (liveness passes) and suspect (the data check holds it out)", got)
	}

	// Held out, the node is no candidate: a burst of creates lands on the
	// healthy node without burning timeouts.
	start := time.Now()
	for i := 0; i < 6; i++ {
		if node := bc.create(t); node != "a" {
			t.Fatalf("create %d landed on %q", i, node)
		}
	}
	if elapsed := time.Since(start); elapsed > 5*bc.router.opts.Timeout {
		t.Fatalf("creates took %v — the held-out black hole was still tried", elapsed)
	}

	// The metrics merge still names the held-out node, and counts it.
	var mt struct {
		Partial bool              `json:"partial"`
		Failed  map[string]string `json:"failed"`
		Router  map[string]any    `json:"router"`
	}
	if code, _ := bc.do(t, http.MethodGet, "/v1/metrics", nil, &mt); code != http.StatusOK {
		t.Fatalf("metrics with the black hole held out: status %d", code)
	}
	if !mt.Partial || mt.Failed["b"] == "" {
		t.Fatalf("held-out node not named in the merge: partial %v failed %v", mt.Partial, mt.Failed)
	}
	if n, _ := mt.Router["suspects"].(float64); n < 1 {
		t.Fatalf("router metrics count no suspect: %v", mt.Router)
	}

	// Recovery: unplug the black hole; the health loop's data-path read
	// readmits the node.
	bc.blackhole.Store(false)
	deadline = time.Now().Add(5 * time.Second)
	for !b.eligible() {
		if time.Now().After(deadline) {
			t.Fatalf("node never readmitted after recovery: %+v", b.snapshot())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestBlackholeFoundWhenClientsGiveUpFirst: every client gives up before
// the router's Timeout, so no call to the black hole fails on the router's
// own deadline. The calls its clients abandoned still lead the health loop
// to read its data path, and that read holds it out.
func TestBlackholeFoundWhenClientsGiveUpFirst(t *testing.T) {
	bc := newBlackholeCluster(t)
	deadline := time.Now().Add(5 * time.Second)
	for !bc.b.snapshot().Suspect {
		if time.Now().After(deadline) {
			t.Fatalf("the black hole was never held out: %+v", bc.b.snapshot())
		}
		ctx, cancel := context.WithTimeout(context.Background(), bc.router.opts.Timeout/2)
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, bc.front.URL+"/v1/sessions",
			strings.NewReader(`{"backend":"bo","workload":"PageRank"}`))
		if err != nil {
			t.Fatal(err)
		}
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
		}
		cancel()
	}
	if st := bc.b.snapshot(); !st.Healthy || !st.Suspect {
		t.Fatalf("black hole %+v: want healthy and suspect", st)
	}
}

// TestNoClientRequestProbesAHeldOutNode: once a black hole is held out, no
// client request reaches its data path again — not routed, not as a probe —
// however many health ticks pass; only the health loop's own read does.
func TestNoClientRequestProbesAHeldOutNode(t *testing.T) {
	bc := newBlackholeCluster(t)
	deadline := time.Now().Add(5 * time.Second)
	for !bc.b.snapshot().Suspect {
		if time.Now().After(deadline) {
			t.Fatalf("no create ever met the black hole: %+v", bc.b.snapshot())
		}
		bc.create(t)
	}
	held := bc.creates.Load()
	for i := 0; i < 40; i++ {
		if node := bc.create(t); node != "a" {
			t.Fatalf("create %d landed on %q", i, node)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := bc.creates.Load() - held; got != 0 {
		t.Fatalf("%d creates reached the held-out node's data path, want 0", got)
	}
	bc.blackhole.Store(false)
	deadline = time.Now().Add(5 * time.Second)
	for !bc.b.eligible() {
		if time.Now().After(deadline) {
			t.Fatalf("node never readmitted after unplugging: %+v", bc.b.snapshot())
		}
		time.Sleep(10 * time.Millisecond)
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
