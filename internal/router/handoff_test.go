package router

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"relm/internal/bo"
	"relm/internal/fault"
	"relm/internal/service"
	"relm/internal/store"
)

// drainOutcome is everything a client can see of the drain scenario's
// sessions from the hand-over point on.
type drainOutcome struct {
	status      map[string]service.StatusResponse // each remote session before its next suggestion
	suggestions map[string][]string               // the next suggestions of each remote session
	autoHistory []service.HistoryJSON             // the auto session, run to completion
}

// runDrainScenario drives the same sessions through any cluster: a
// completed session that seeds the model repository, four remote sessions
// (one per backend; gbo warm-started from the seed, ddpg left with a
// suggestion outstanding) and an auto session. If drain names a node it is
// drained once the auto session is under way. Every ID is supplied by the
// caller, so the scenario is identical on a one-node twin.
func runDrainScenario(t *testing.T, tc *testCluster, ids map[string]string, drain, successor string) drainOutcome {
	t.Helper()
	must := func(want int, method, path string, body, out any) http.Header {
		t.Helper()
		code, hdr := tc.do(t, method, path, body, out)
		if code != want {
			t.Fatalf("%s %s: status %d, want %d", method, path, code, want)
		}
		return hdr
	}
	round := func(id string, i int) string {
		t.Helper()
		var sug service.SuggestResponse
		must(http.StatusOK, http.MethodPost, "/v1/sessions/"+id+"/suggest", nil, &sug)
		must(http.StatusOK, http.MethodPost, "/v1/sessions/"+id+"/observe",
			map[string]any{"config": sug.Config, "runtime_sec": 200.0 - 5*float64(i), "stats": testStats()}, nil)
		return fmt.Sprintf("%+v", sug.Config)
	}

	var seed service.StatusResponse
	must(http.StatusCreated, http.MethodPost, "/v1/sessions", map[string]any{
		"id": ids["seed"], "backend": "bo", "workload": "K-means", "seed": 1, "max_iterations": 2,
		"stats": testStats(), "default_runtime_sec": 240.0,
	}, &seed)
	for i := 0; seed.State != service.StateDone; i++ {
		if i > 40 {
			t.Fatalf("seed session never completed: %+v", seed)
		}
		round(seed.ID, i)
		must(http.StatusOK, http.MethodGet, "/v1/sessions/"+seed.ID, nil, &seed)
	}

	backends := []string{"bo", "gbo", "relm", "ddpg"}
	for _, backend := range backends {
		body := map[string]any{
			"id": ids[backend], "backend": backend, "workload": "K-means", "seed": 3,
			"max_iterations": 30, "max_steps": 30,
		}
		rounds := 5
		switch backend {
		case "gbo":
			body["warm_start"], body["stats"], body["default_runtime_sec"] = true, testStats(), 240.0
			rounds = 2 // a warm-started search is short; stay inside it
		case "relm":
			rounds = 1 // and RelM's is shorter still
		}
		var st service.StatusResponse
		must(http.StatusCreated, http.MethodPost, "/v1/sessions", body, &st)
		if st.WarmStarted != (backend == "gbo") {
			t.Fatalf("%s session warm_started=%v", backend, st.WarmStarted)
		}
		for i := 0; i < rounds; i++ {
			round(st.ID, i)
		}
		must(http.StatusOK, http.MethodGet, "/v1/sessions/"+st.ID, nil, &st)
		if st.State != service.StateActive || st.Evals != rounds {
			t.Fatalf("%s session not mid-search before the hand-over: %+v", backend, st)
		}
	}
	var outstanding service.SuggestResponse
	must(http.StatusOK, http.MethodPost, "/v1/sessions/"+ids["ddpg"]+"/suggest", nil, &outstanding)

	var auto service.StatusResponse
	must(http.StatusCreated, http.MethodPost, "/v1/sessions", map[string]any{
		"id": ids["auto"], "backend": "ddpg", "workload": "K-means", "mode": "auto", "seed": 6, "max_steps": 20,
	}, &auto)
	for deadline := time.Now().Add(30 * time.Second); auto.Evals < 1; {
		if time.Now().After(deadline) {
			t.Fatal("auto session never recorded an experiment")
		}
		time.Sleep(time.Millisecond)
		must(http.StatusOK, http.MethodGet, "/v1/sessions/"+auto.ID, nil, &auto)
	}

	if drain != "" {
		var drained struct {
			Node       string         `json:"node"`
			Sessions   int            `json:"sessions"`
			Models     int            `json:"models"`
			Reassigned []reassignment `json:"reassigned"`
		}
		must(http.StatusOK, http.MethodPost, "/v1/cluster/drain/"+drain, nil, &drained)
		if drained.Node != drain || drained.Models < 1 || len(drained.Reassigned) != drained.Sessions {
			t.Fatalf("drain response: %+v", drained)
		}
		moved := make(map[string]reassignment)
		for _, ra := range drained.Reassigned {
			moved[ra.ID] = ra
		}
		for _, backend := range backends {
			ra, ok := moved[ids[backend]]
			if !ok || ra.Node != successor || ra.WarmStarted != (backend == "gbo") {
				t.Fatalf("%s session reassignment %+v (found %v), want node %s", backend, ra, ok, successor)
			}
		}
		if _, ok := moved[ids["auto"]]; !ok {
			t.Fatalf("auto session was not handed over mid-run: %+v", drained)
		}
		if _, ok := moved[ids["seed"]]; ok {
			t.Fatal("a completed session was handed over")
		}
		if tc.router.nodeByName(drain).eligible() || tc.managers[drain].Len() != 0 {
			t.Fatalf("drained node %s still in service", drain)
		}
	}

	out := drainOutcome{status: make(map[string]service.StatusResponse), suggestions: make(map[string][]string)}
	for _, backend := range backends {
		id := ids[backend]
		var st service.StatusResponse
		hdr := must(http.StatusOK, http.MethodGet, "/v1/sessions/"+id, nil, &st)
		if drain != "" && hdr.Get("X-Relm-Node") != successor {
			t.Fatalf("%s session served by %q after the drain, want %q", backend, hdr.Get("X-Relm-Node"), successor)
		}
		st.Node, st.Created, st.LastUsed = "", time.Time{}, time.Time{}
		out.status[backend] = st
		for i := 0; i < 3; i++ {
			out.suggestions[backend] = append(out.suggestions[backend], round(id, 10+i))
		}
	}
	if got := out.suggestions["ddpg"][0]; got != fmt.Sprintf("%+v", outstanding.Config) {
		t.Fatalf("ddpg suggestion outstanding across the hand-over changed: %s, was %+v", got, outstanding.Config)
	}
	for deadline := time.Now().Add(120 * time.Second); auto.State != service.StateDone; {
		if time.Now().After(deadline) || auto.State == service.StateFailed {
			t.Fatalf("auto session did not complete: %+v", auto)
		}
		time.Sleep(2 * time.Millisecond)
		must(http.StatusOK, http.MethodGet, "/v1/sessions/"+auto.ID, nil, &auto)
	}
	must(http.StatusOK, http.MethodGet, "/v1/sessions/"+auto.ID+"/history", nil, &out.autoHistory)
	return out
}

// TestDrainHandoffBitExact: sessions drained off their home node continue
// on the successor exactly as they would have had the drain never
// happened. The oracle is the same scenario on an undrained one-node twin:
// evals, warm start and surrogate state carried over, the next suggestions
// of every backend identical (the ddpg one outstanding at the drain
// included), and the auto session interrupted mid-run finishing with the
// history of an uninterrupted run.
func TestDrainHandoffBitExact(t *testing.T) {
	// The auto session's observations journal slowly on the node to be
	// drained, so the drain reliably lands in the middle of its run.
	slow := &slowStore{Store: store.NewMem(), delay: 10 * time.Millisecond}
	tc := newTestClusterStores(t, map[string]store.Store{"a": slow}, "a", "b")
	twin := newTestCluster(t, "solo")

	// IDs that all live on "a" while both nodes are up.
	ids := make(map[string]string)
	for _, role := range []string{"seed", "bo", "gbo", "relm", "ddpg", "auto"} {
		for i := 0; ids[role] == ""; i++ {
			if id := fmt.Sprintf("d-%s-%d", role, i); candidates(tc.router.nodes, id)[0].name == "a" {
				ids[role] = id
			}
		}
	}

	slow.id = ids["auto"]
	want := runDrainScenario(t, twin, ids, "", "")
	got := runDrainScenario(t, tc, ids, "a", "b")

	for backend, st := range want.status {
		if !reflect.DeepEqual(got.status[backend], st) {
			t.Errorf("%s status after the drain:\n got %+v\nwant %+v", backend, got.status[backend], st)
		}
		if !reflect.DeepEqual(got.suggestions[backend], want.suggestions[backend]) {
			t.Errorf("%s suggestions after the drain:\n got %v\nwant %v", backend, got.suggestions[backend], want.suggestions[backend])
		}
	}
	if st := got.status["gbo"]; st.Evals != 2 || st.WarmSource != "K-means" {
		t.Errorf("warm-started session lost its state in the hand-over: %+v", st)
	}
	if !reflect.DeepEqual(got.autoHistory, want.autoHistory) {
		t.Errorf("drained auto session's history differs from an uninterrupted run:\n got %d evals %+v\nwant %d evals %+v",
			len(got.autoHistory), got.autoHistory, len(want.autoHistory), want.autoHistory)
	}

	// The drained node takes no new sessions.
	var st service.StatusResponse
	if code, _ := tc.do(t, http.MethodPost, "/v1/sessions",
		map[string]any{"backend": "bo", "workload": "PageRank"}, &st); code != http.StatusCreated || st.Node != "b" {
		t.Fatalf("create after drain: status %d on %q, want 201 on b", code, st.Node)
	}
}

// slowStore delays the observe events of one session.
type slowStore struct {
	store.Store
	id    string
	delay time.Duration
}

func (s *slowStore) Append(ev *store.Event) (uint64, error) {
	if ev.ID == s.id && ev.Type == store.EventObserve {
		time.Sleep(s.delay)
	}
	return s.Store.Append(ev)
}

// TestHandOff covers the one placement routine behind drain and fail-over
// against each kind of first candidate: adopting, already holding the
// session, refusing for good, refusing because it is itself on the way out
// (draining, journal-degraded), unreachable, and cut off by a router.proxy
// partition.
func TestHandOff(t *testing.T) {
	const id = "s-handoff"
	rep := service.HandoffReport{Node: "gone", Sessions: []store.SessionSnapshot{{ID: id, State: service.StateActive}}}
	answer := func(code int) http.HandlerFunc {
		return func(w http.ResponseWriter, req *http.Request) {
			if req.URL.Path != "/v1/handoff/adopt" {
				t.Errorf("hand-over hit %s %s", req.Method, req.URL.Path)
			}
			w.WriteHeader(code)
		}
	}
	draining := func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, `{"error":"service: node draining, not accepting sessions"}`, http.StatusServiceUnavailable)
	}
	for _, tt := range []struct {
		name        string
		first       http.HandlerFunc // nil: the first candidate is down
		partitioned bool             // router.proxy cuts the first candidate off
		placed      int              // which candidate ends up holding the session (-1: none)
	}{
		{"adopts", answer(http.StatusCreated), false, 0},
		{"already holds it", answer(http.StatusConflict), false, 0},
		{"refuses", answer(http.StatusServiceUnavailable), false, -1},
		{"first successor draining", draining, false, 1},
		{"first successor degraded (503 + Retry-After)", retriable503, false, 1},
		{"unreachable", nil, false, 1},
		{"partitioned by router.proxy", func(http.ResponseWriter, *http.Request) {
			t.Error("the partitioned candidate saw a request")
		}, true, 1},
	} {
		t.Run(tt.name, func(t *testing.T) {
			// Two backends whose handlers are assigned once rendezvous order
			// for the session is known.
			handlers := map[string]http.HandlerFunc{}
			backend := func(name string) Backend {
				return fakeBackend(t, name, func(w http.ResponseWriter, req *http.Request) { handlers[name](w, req) })
			}
			tc := newFakeCluster(t, backend("x"), backend("y"))
			cands := candidates(tc.router.nodes, id)
			handlers[cands[0].name] = tt.first
			handlers[cands[1].name] = answer(http.StatusCreated)
			if tt.first == nil {
				dead := httptest.NewServer(nil)
				dead.Close()
				cands[0].base, _ = cands[0].base.Parse(dead.URL)
			}
			if tt.partitioned {
				t.Cleanup(fault.DisarmAll)
				if err := fault.Apply(fault.Schedule{Seed: 1, Rules: []fault.Rule{
					{Point: "router.proxy", Action: "error", Match: cands[0].name, Count: 100},
				}}); err != nil {
					t.Fatal(err)
				}
			}

			reassigned, errs := tc.router.handOff(context.Background(), tc.router.nodes, rep)
			if tt.placed < 0 {
				if len(reassigned) != 0 || errs["adopt "+id] == "" {
					t.Fatalf("refused hand-over: reassigned %+v errs %v", reassigned, errs)
				}
				return
			}
			if len(errs) != 0 || len(reassigned) != 1 || reassigned[0].ID != id || reassigned[0].Node != cands[tt.placed].name {
				t.Fatalf("reassigned %+v errs %v, want %s on %s", reassigned, errs, id, cands[tt.placed].name)
			}
			if (tt.first == nil || tt.partitioned) && cands[0].eligible() {
				t.Fatal("unreachable candidate not marked suspect")
			}
		})
	}
}

// TestFailedImportHoldsSurvivorOut: a hand-over's repository import that
// fails at the transport level holds that survivor out, as any failed call
// does, and leaves the one that answered in placement.
func TestFailedImportHoldsSurvivorOut(t *testing.T) {
	ok := func(w http.ResponseWriter, _ *http.Request) { w.Write([]byte(`{"imported":1}`)) }
	tc := newFakeCluster(t, fakeBackend(t, "x", ok), fakeBackend(t, "y", ok))
	x, y := tc.router.nodeByName("x"), tc.router.nodeByName("y")
	dead := httptest.NewServer(nil)
	dead.Close()
	x.base, _ = x.base.Parse(dead.URL)

	_, errs := tc.router.handOff(context.Background(), tc.router.nodes,
		service.HandoffReport{Node: "gone", Repo: []bo.RepoEntry{{Workload: "K-means"}}})
	if errs["import x"] == "" || errs["import y"] != "" {
		t.Fatalf("import errors %v, want x's only", errs)
	}
	if st := x.snapshot(); x.eligible() || !st.Suspect {
		t.Fatalf("survivor whose import failed: %+v, want held out as suspect", st)
	}
	if !y.eligible() {
		t.Fatalf("survivor whose import answered: %+v, want in placement", y.snapshot())
	}
}
