package router

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"relm/internal/fault"
	"relm/internal/service"
)

// --- retriable 503 walk ----------------------------------------------------

// fakeBackend is an httptest backend that always passes health checks and
// answers the data path via fn.
func fakeBackend(t *testing.T, name string, fn http.HandlerFunc) Backend {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, req *http.Request) {
		fmt.Fprintf(w, `{"ok":true,"node":%q}`, name)
	})
	mux.HandleFunc("/", fn)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return Backend{Name: name, URL: srv.URL}
}

// retriable503 answers like a service whose WAL cannot ack: 503 with
// Retry-After, the shape writeError produces for store/journal faults.
func retriable503(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Retry-After", "1")
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusServiceUnavailable)
	fmt.Fprint(w, `{"error":"store: wal degraded (read-only): injected"}`)
}

func newFakeCluster(t *testing.T, backends ...Backend) *testCluster {
	t.Helper()
	opts := fastCheck(backends...)
	opts.CheckInterval = time.Hour // first check fires immediately, then never
	opts.BackoffMax = time.Hour
	r, err := New(opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	tc := &testCluster{router: r, front: httptest.NewServer(r)}
	t.Cleanup(func() {
		tc.front.Close()
		r.Close()
	})
	tc.waitHealthy(t, len(backends))
	return tc
}

// TestSessionWalkPrefersRetriable503Over404: only the node holding a
// session answers its requests with a retriable 503 — every other node
// 404s. If the router replayed the 404 it would report a live session as
// gone; it must surface the 503 + Retry-After so the client retries.
func TestSessionWalkPrefersRetriable503Over404(t *testing.T) {
	holder := fakeBackend(t, "holder", retriable503)
	other := fakeBackend(t, "other", func(w http.ResponseWriter, req *http.Request) {
		http.Error(w, `{"error":"session not found"}`, http.StatusNotFound)
	})
	tc := newFakeCluster(t, holder, other)

	for i := 0; i < 6; i++ { // both candidate orders get exercised
		code, hdr := tc.do(t, http.MethodGet, "/v1/sessions/s-1", nil, nil)
		if code != http.StatusServiceUnavailable {
			t.Fatalf("walk %d: status %d, want 503 (holder's answer)", i, code)
		}
		if hdr.Get("Retry-After") == "" {
			t.Fatalf("walk %d: replayed 503 lost Retry-After", i)
		}
	}
	// The injected refusals were HTTP answers, not transport failures:
	// neither node may have turned suspect.
	for _, n := range tc.router.nodes {
		if st := n.snapshot(); st.Suspect {
			t.Fatalf("node %s suspect after 503 answers: %+v", st.Name, st)
		}
	}
}

// TestCreateWalksPastRetriable503: a node that cannot durably ack refuses
// creates with a retriable 503; the router must spend retry budget and
// place the session on the next candidate instead of surfacing the 503.
func TestCreateWalksPastRetriable503(t *testing.T) {
	refusing := fakeBackend(t, "refusing", retriable503)

	m := openManager(t, service.Options{NodeID: "good", Workers: 1, TTL: time.Hour})
	t.Cleanup(m.Close)
	srv := httptest.NewServer(service.NewHandler(m))
	t.Cleanup(srv.Close)

	tc := newFakeCluster(t, refusing, Backend{Name: "good", URL: srv.URL})
	for i := 0; i < 10; i++ {
		var st service.StatusResponse
		code, _ := tc.do(t, http.MethodPost, "/v1/sessions",
			map[string]any{"backend": "bo", "workload": "PageRank", "seed": i}, &st)
		if code != http.StatusCreated {
			t.Fatalf("create %d: status %d (retriable 503 leaked through)", i, code)
		}
		if st.Node != "good" {
			t.Fatalf("create %d landed on %q, want the healthy node", i, st.Node)
		}
	}
	if got := m.Len(); got != 10 {
		t.Fatalf("healthy node holds %d sessions, want 10", got)
	}
}

// TestCreateAllRefusedReplaysRetriable503: when every candidate refuses
// with a retriable 503, the router answers with a 503 that is still
// retriable for the client rather than inventing a generic 502. With two
// backends both refusals fit RetryBudget (2) and the remembered one is
// replayed; with three the budget is spent before the last candidate, whose
// own 503 is the final answer — it must keep Retry-After too.
func TestCreateAllRefusedReplaysRetriable503(t *testing.T) {
	for _, n := range []int{2, 3} {
		t.Run(fmt.Sprintf("backends=%d", n), func(t *testing.T) {
			var backends []Backend
			for i := 0; i < n; i++ {
				backends = append(backends, fakeBackend(t, fmt.Sprintf("n%d", i), retriable503))
			}
			tc := newFakeCluster(t, backends...)

			code, hdr := tc.do(t, http.MethodPost, "/v1/sessions",
				map[string]any{"backend": "bo", "workload": "PageRank"}, nil)
			if code != http.StatusServiceUnavailable {
				t.Fatalf("all-refused create: status %d, want 503", code)
			}
			if hdr.Get("Retry-After") == "" {
				t.Fatal("503 from an all-refusing cluster lost Retry-After")
			}
			if hdr.Get("X-Relm-Node") == "" {
				t.Fatal("503 does not name the node that refused")
			}
		})
	}
}

// --- router.proxy failpoint ------------------------------------------------

// TestInjectedPartitionHoldsNodeOutNotPromotion: an armed router.proxy
// fault matching one backend acts as a partition — its sends fail without
// reaching the node. The first one marks the node suspect. Health probes
// bypass the data path and keep passing, so the node stays live and is
// never promoted; the health loop's data-path read crosses the failpoint
// and fails, so the node stays out. Disarmed, that read readmits it.
func TestInjectedPartitionHoldsNodeOutNotPromotion(t *testing.T) {
	tc := &testCluster{
		managers: make(map[string]*service.Manager),
		servers:  make(map[string]*httptest.Server),
	}
	var backends []Backend
	for _, name := range []string{"a", "b"} {
		m := openManager(t, service.Options{NodeID: name, Workers: 1, TTL: time.Hour})
		srv := httptest.NewServer(service.NewHandler(m))
		tc.managers[name] = m
		tc.servers[name] = srv
		backends = append(backends, Backend{Name: name, URL: srv.URL})
	}
	opts := fastCheck(backends...) // live 10ms health checks
	opts.Promote = true
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
	tc.waitHealthy(t, 2)
	t.Cleanup(fault.DisarmAll)
	err = fault.Apply(fault.Schedule{Seed: 7, Rules: []fault.Rule{
		{Point: "router.proxy", Action: "error", Match: "a", Count: 10000, Window: 10000},
	}})
	if err != nil {
		t.Fatal(err)
	}
	a := r.nodeByName("a")
	create := func() string {
		t.Helper()
		var st service.StatusResponse
		code, _ := tc.do(t, http.MethodPost, "/v1/sessions",
			map[string]any{"backend": "bo", "workload": "PageRank"}, &st)
		if code != http.StatusCreated {
			t.Fatalf("create under partition: status %d", code)
		}
		return st.Node
	}

	// Create until a create owned by a has met the partition, then as many
	// again across several health ticks: no create may land on a, and a
	// stays live — its /healthz answers — so nothing is promoted.
	deadline := time.Now().Add(10 * time.Second)
	for !a.snapshot().Suspect {
		if time.Now().After(deadline) {
			t.Fatal("injected transport failures never held the node out")
		}
		if create() == "a" {
			t.Fatal("create landed on the partitioned node")
		}
	}
	for i := 0; i < 20; i++ {
		if create() == "a" {
			t.Fatal("create landed on the held-out partitioned node")
		}
		if st := a.snapshot(); !st.Healthy || !st.Suspect {
			t.Fatalf("partitioned node %+v, want healthy and suspect", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := r.promotions.Load(); got != 0 {
		t.Fatalf("injected partition caused %d promotions, want 0 (node is up)", got)
	}

	// Disarm: the next data-path read answers, and creates reach a again.
	fault.DisarmAll()
	deadline = time.Now().Add(10 * time.Second)
	for create() != "a" {
		if time.Now().After(deadline) {
			t.Fatal("partitioned node never recovered after disarm")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if st := a.snapshot(); st.Suspect || st.Fails != 0 {
		t.Fatalf("recovered node %+v, want neither suspect nor failing", st)
	}
}

// TestFaultsCannotBeArmedRemotely: only code inside the process arms a
// failpoint. A torn schedule posted to /v1/faults — on a node or on the
// router — finds no route, and the registry stays disarmed.
func TestFaultsCannotBeArmedRemotely(t *testing.T) {
	t.Cleanup(fault.DisarmAll)
	tc := newTestCluster(t, "a")
	torn := map[string]any{"seed": 1, "rules": []map[string]any{
		{"point": "store.write", "action": "torn", "count": 1},
	}}
	for name, srv := range map[string]*httptest.Server{"node": tc.servers["a"], "router": tc.front} {
		code, _ := (&testCluster{front: srv}).do(t, http.MethodPost, "/v1/faults", torn, nil)
		if code != http.StatusNotFound && code != http.StatusMethodNotAllowed {
			t.Errorf("POST /v1/faults on the %s: status %d, want 404 or 405", name, code)
		}
		if fault.Snapshot().Armed {
			t.Fatalf("POST /v1/faults on the %s armed a schedule", name)
		}
	}
}
