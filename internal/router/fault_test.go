package router

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"relm/internal/fault"
	"relm/internal/service"
)

// --- breaker half-open under concurrency -----------------------------------

// openNode returns a node whose breaker is open with brUntil already in the
// past, so the next brAcquire transitions it to half-open.
func openNode(t *testing.T, now time.Time) *node {
	t.Helper()
	base, _ := url.Parse("http://x.invalid")
	n := &node{name: "x", base: base}
	for i := 0; i < 3; i++ {
		if !n.brAcquire(now) {
			t.Fatalf("closed breaker refused acquire %d", i)
		}
		n.brFailure(3, time.Second, 8*time.Second, now)
	}
	if st := n.snapshot(); st.Breaker != "open" {
		t.Fatalf("breaker %q after threshold failures, want open", st.Breaker)
	}
	return n
}

// TestBreakerHalfOpenSingleProbe: when an open breaker's probe delay has
// passed, concurrent acquirers race for the half-open slot — exactly one
// must win, and the losers must be refused immediately (fail fast, no
// blocking). Run with -race: the claim and the refusals touch the same
// state from every goroutine.
func TestBreakerHalfOpenSingleProbe(t *testing.T) {
	now := time.Now()
	n := openNode(t, now)
	probeAt := now.Add(2 * time.Second) // past brUntil (1s)

	const workers = 64
	var admitted atomic.Int64
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if n.brAcquire(probeAt) {
				admitted.Add(1)
			}
		}()
	}
	close(start)
	wg.Wait()
	if got := admitted.Load(); got != 1 {
		t.Fatalf("half-open admitted %d probes, want exactly 1", got)
	}
	if st := n.snapshot(); st.Breaker != "half-open" {
		t.Fatalf("breaker %q after probe claimed, want half-open", st.Breaker)
	}

	// While the probe is in flight every further acquire is refused.
	for i := 0; i < 8; i++ {
		if n.brAcquire(probeAt.Add(time.Duration(i) * time.Second)) {
			t.Fatalf("acquire %d admitted while probe in flight", i)
		}
	}

	// The winning probe succeeds: breaker closes and admits everyone again.
	n.brSuccess()
	if st := n.snapshot(); st.Breaker != "closed" {
		t.Fatalf("breaker %q after probe success, want closed", st.Breaker)
	}
	if !n.brAcquire(probeAt) {
		t.Fatal("closed breaker refused acquire after recovery")
	}
	n.brSuccess()
}

// TestBreakerHalfOpenProbeFailureReopens: the probe loser path under
// concurrency — many goroutines race for the slot, the single winner fails
// its probe, and the breaker must be open again with a doubled delay.
// Repeats the cycle to check the exponential backoff is race-clean too.
func TestBreakerHalfOpenProbeFailureReopens(t *testing.T) {
	now := time.Now()
	n := openNode(t, now)

	at := now
	wantDelay := time.Second
	for round := 0; round < 3; round++ {
		at = at.Add(wantDelay + time.Second) // past brUntil
		var admitted atomic.Int64
		var wg sync.WaitGroup
		start := make(chan struct{})
		for i := 0; i < 32; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				if n.brAcquire(at) {
					admitted.Add(1)
					n.brFailure(3, time.Second, 8*time.Second, at)
				}
			}()
		}
		close(start)
		wg.Wait()
		if got := admitted.Load(); got != 1 {
			t.Fatalf("round %d: %d probes admitted, want 1", round, got)
		}
		if st := n.snapshot(); st.Breaker != "open" {
			t.Fatalf("round %d: breaker %q after failed probe, want open", round, st.Breaker)
		}
		wantDelay = min(wantDelay*2, 8*time.Second)
		if n.brAvailable(at.Add(wantDelay - time.Millisecond)) {
			t.Fatalf("round %d: breaker available before doubled delay %v", round, wantDelay)
		}
		if !n.brAvailable(at.Add(wantDelay)) {
			t.Fatalf("round %d: breaker still closed off after delay %v", round, wantDelay)
		}
	}
}

// TestBreakerTransitionsRaceClean hammers acquire/success/failure from
// many goroutines at once with no outcome assertions beyond internal
// consistency — its job is to fail under -race if any transition touches
// breaker state outside the lock.
func TestBreakerTransitionsRaceClean(t *testing.T) {
	base, _ := url.Parse("http://x.invalid")
	n := &node{name: "x", base: base}
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			now := time.Now()
			for j := 0; j < 200; j++ {
				at := now.Add(time.Duration(j) * 10 * time.Millisecond)
				if n.brAcquire(at) {
					if (worker+j)%3 == 0 {
						n.brFailure(3, time.Millisecond, 8*time.Millisecond, at)
					} else {
						n.brSuccess()
					}
				} else {
					n.brAvailable(at)
				}
			}
		}(i)
	}
	wg.Wait()
	if st := n.snapshot(); st.Breaker == "" {
		t.Fatal("unreachable")
	}
}

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
	// The injected refusals were HTTP answers, not transport failures: the
	// breaker must not have tripped on either node.
	for _, n := range tc.router.nodes {
		if st := n.snapshot(); st.Breaker != "closed" {
			t.Fatalf("node %s breaker %q after 503 answers, want closed", st.Name, st.Breaker)
		}
	}
}

// TestCreateWalksPastRetriable503: a node that cannot durably ack refuses
// creates with a retriable 503; the router must spend retry budget and
// place the session on the next candidate instead of surfacing the 503.
func TestCreateWalksPastRetriable503(t *testing.T) {
	refusing := fakeBackend(t, "refusing", retriable503)

	m := service.NewManager(service.Options{NodeID: "good", Workers: 1, TTL: time.Hour})
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

// TestInjectedPartitionTripsBreakerNotPromotion: an armed router.proxy
// fault matching one backend acts as a partition — its sends fail without
// reaching the node. Health checks bypass the data path, so they keep
// restoring the node after each suspect(); the breaker is what actually
// accumulates the failures and cuts the node off, and promotions stay at
// zero because the node itself is up (partitioned, not dead).
func TestInjectedPartitionTripsBreakerNotPromotion(t *testing.T) {
	tc := &testCluster{
		managers: make(map[string]*service.Manager),
		servers:  make(map[string]*httptest.Server),
	}
	var backends []Backend
	for _, name := range []string{"a", "b"} {
		m := service.NewManager(service.Options{NodeID: name, Workers: 1, TTL: time.Hour})
		srv := httptest.NewServer(service.NewHandler(m))
		tc.managers[name] = m
		tc.servers[name] = srv
		backends = append(backends, Backend{Name: name, URL: srv.URL})
	}
	opts := fastCheck(backends...) // live 10ms health checks
	opts.BreakerProbe = 30 * time.Millisecond
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

	var a *node
	for _, n := range tc.router.nodes {
		if n.name == "a" {
			a = n
		}
	}

	// Keep creating until the breaker has opened on the partitioned node;
	// each injected failure suspects it and the next health check restores
	// it, so the walk keeps re-offering it to the failpoint. No create may
	// ever land on the partitioned node.
	deadline := time.Now().Add(10 * time.Second)
	for a.snapshot().BreakerOpens == 0 {
		if time.Now().After(deadline) {
			t.Fatal("injected transport failures never opened the breaker")
		}
		var st service.StatusResponse
		code, _ := tc.do(t, http.MethodPost, "/v1/sessions",
			map[string]any{"backend": "bo", "workload": "PageRank"}, &st)
		if code != http.StatusCreated {
			t.Fatalf("create under partition: status %d", code)
		}
		if st.Node == "a" {
			t.Fatal("create landed on the partitioned node")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := tc.router.promotions.Load(); got != 0 {
		t.Fatalf("injected partition caused %d promotions, want 0 (node is up)", got)
	}

	// Disarm: the half-open probe goes through on the data path and the
	// breaker closes again, so creates reach the node once more.
	fault.DisarmAll()
	deadline = time.Now().Add(10 * time.Second)
	for {
		var st service.StatusResponse
		code, _ := tc.do(t, http.MethodPost, "/v1/sessions",
			map[string]any{"backend": "bo", "workload": "PageRank"}, &st)
		if code == http.StatusCreated && st.Node == "a" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("partitioned node never recovered after disarm")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if st := a.snapshot(); st.Breaker != "closed" {
		t.Fatalf("recovered node's breaker is %q, want closed", st.Breaker)
	}
}
