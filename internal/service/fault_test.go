package service

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"relm/internal/conf"
	"relm/internal/fault"
	"relm/internal/store"
)

// armServiceFault arms one rule and disarms everything at test end.
func armServiceFault(t *testing.T, point, action string, count int) {
	t.Helper()
	err := fault.Apply(fault.Schedule{Seed: 1, Rules: []fault.Rule{
		{Point: point, Action: action, Count: count},
	}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fault.DisarmAll)
}

// armFaultAfter fails the point's hit after the first `after` ones, once,
// and disarms everything at test end.
func armFaultAfter(t *testing.T, point string, after int) {
	t.Helper()
	err := fault.Apply(fault.Schedule{Seed: 1, Rules: []fault.Rule{
		{Point: point, Action: "error", After: after, Count: 1},
	}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fault.DisarmAll)
}

// fileStoreManager builds a Manager over a real file store so store
// failpoints exercise the whole journal path.
func fileStoreManager(t *testing.T, o store.FileOptions) (*Manager, string) {
	t.Helper()
	dir := t.TempDir()
	fs, err := store.OpenFile(dir, o)
	if err != nil {
		t.Fatal(err)
	}
	m := newTestManager(t, Options{Workers: 1, Store: fs})
	return m, dir
}

// reopen is the restart after a crash: a Manager recovered from dir.
func reopen(t *testing.T, dir string) *Manager {
	t.Helper()
	fs, err := store.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Open(Options{Workers: 1, Store: fs})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	return m
}

func TestObserveJournalFailureLeavesStateUntouched(t *testing.T) {
	m, dir := fileStoreManager(t, store.FileOptions{})
	st, err := m.Create(Spec{Backend: "bo", Workload: "SVM", Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	cfg, _, err := m.Suggest(st.ID)
	if err != nil {
		t.Fatal(err)
	}

	armServiceFault(t, "store.write", "error", 1)
	obs := Observation{Config: cfg, RuntimeSec: 120}
	if _, err := m.Observe(st.ID, obs); !errors.Is(err, ErrJournal) {
		t.Fatalf("observe under journal fault: %v, want ErrJournal", err)
	}
	// Journal-before-apply: the refused observation must not have touched
	// the tuner or history.
	mid, err := m.Get(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if mid.Evals != 0 {
		t.Fatalf("refused observation mutated state: evals=%d", mid.Evals)
	}
	fault.DisarmAll()

	// The identical retry succeeds and is journaled exactly once.
	if _, err := m.Observe(st.ID, obs); err != nil {
		t.Fatalf("retry after fault cleared: %v", err)
	}
	after, err := m.Get(st.ID)
	if err != nil || after.Evals != 1 {
		t.Fatalf("retried observe: evals=%d err=%v", after.Evals, err)
	}
	m.Close()

	// Recovery agrees with what was acked: exactly one observation.
	fs2, err := store.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Open(Options{Workers: 1, Store: fs2})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	restored, err := m2.Get(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Evals != 1 {
		t.Fatalf("restored evals=%d, want 1", restored.Evals)
	}
}

// TestRefusedObserveLeavesAbortWatermark: the §6.1 abort penalty is twice
// the worst runtime *recorded* so far. An observation the journal refused
// is not recorded, so it must not raise the watermark — live or after the
// log is replayed, which never saw it.
func TestRefusedObserveLeavesAbortWatermark(t *testing.T) {
	m, dir := fileStoreManager(t, store.FileOptions{})
	st, err := m.Create(Spec{Backend: "bo", Workload: "SVM", Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	cfg, _, err := m.Suggest(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Observe(st.ID, Observation{Config: cfg, RuntimeSec: 100}); err != nil {
		t.Fatal(err)
	}
	if cfg, _, err = m.Suggest(st.ID); err != nil {
		t.Fatal(err)
	}
	// Armed after the suggest: its advisory journal entry would otherwise
	// spend the rule.
	armServiceFault(t, "store.write", "error", 1)
	if _, err := m.Observe(st.ID, Observation{Config: cfg, RuntimeSec: 900}); !errors.Is(err, ErrJournal) {
		t.Fatalf("observe under journal fault: %v, want ErrJournal", err)
	}
	fault.DisarmAll()
	if _, err := m.Observe(st.ID, Observation{Config: cfg, RuntimeSec: 50, Aborted: true}); err != nil {
		t.Fatal(err)
	}
	live, err := m.History(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(live) != 2 {
		t.Fatalf("history has %d entries, want 2", len(live))
	}
	if live[1].Objective != 200 {
		t.Errorf("live abort penalty %v, want 200 (2 × the worst recorded runtime, 100 s)", live[1].Objective)
	}
	m.Close()

	fs2, err := store.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Open(Options{Workers: 1, Store: fs2})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	replayed, err := m2.History(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(replayed) != 2 || replayed[1].Objective != live[1].Objective {
		t.Fatalf("replayed objective %v differs from live %v", replayed[1].Objective, live[1].Objective)
	}
}

func TestCreateJournalFailureRollsBackWithoutTombstone(t *testing.T) {
	m, _ := fileStoreManager(t, store.FileOptions{})
	armServiceFault(t, "store.write", "error", 1)
	if _, err := m.Create(Spec{ID: "sess-retry", Backend: "bo", Workload: "SVM"}); !errors.Is(err, ErrJournal) {
		t.Fatalf("create under journal fault: %v, want ErrJournal", err)
	}
	fault.DisarmAll()
	// The ID must remain free: nothing reached the log.
	st, err := m.Create(Spec{ID: "sess-retry", Backend: "bo", Workload: "SVM"})
	if err != nil {
		t.Fatalf("retrying the same ID after a refused create: %v", err)
	}
	if st.ID != "sess-retry" {
		t.Fatalf("retried create got ID %q", st.ID)
	}
}

func TestHTTPJournalFaultMapsTo503RetryAfter(t *testing.T) {
	m, _ := fileStoreManager(t, store.FileOptions{})
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()

	var created StatusResponse
	if code := doJSON(t, http.MethodPost, srv.URL+"/v1/sessions", CreateRequest{Backend: "bo", Workload: "SVM"}, &created); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	var sug SuggestResponse
	if code := doJSON(t, http.MethodPost, srv.URL+"/v1/sessions/"+created.ID+"/suggest", nil, &sug); code != http.StatusOK {
		t.Fatalf("suggest: status %d", code)
	}

	armServiceFault(t, "store.write", "error", 1)
	body, _ := json.Marshal(ObserveRequest{Config: sug.Config, RuntimeSec: 100})
	resp, err := http.Post(srv.URL+"/v1/sessions/"+created.ID+"/observe", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("observe under journal fault: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 from a journal fault must carry Retry-After (retriable)")
	}
	fault.DisarmAll()

	var after StatusResponse
	if code := doJSON(t, http.MethodPost, srv.URL+"/v1/sessions/"+created.ID+"/observe", ObserveRequest{Config: sug.Config, RuntimeSec: 100}, &after); code != http.StatusOK {
		t.Fatalf("retry observe: status %d", code)
	}
	if after.Evals != 1 {
		t.Fatalf("after retry: evals=%d, want 1", after.Evals)
	}
}

// TestHTTPInjectedObserveFaultIsRetriable: an injected service.observe
// fault is a retriable 503, for drop as for error — service.observe does
// not handle drop, so it fails like error.
func TestHTTPInjectedObserveFaultIsRetriable(t *testing.T) {
	m := newTestManager(t, Options{Workers: 1})
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()

	var created StatusResponse
	if code := doJSON(t, http.MethodPost, srv.URL+"/v1/sessions", CreateRequest{Backend: "bo", Workload: "SVM"}, &created); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	body, _ := json.Marshal(ObserveRequest{Config: ConfigJSON(conf.Default()), RuntimeSec: 100})
	for _, action := range []string{"error", "drop"} {
		armServiceFault(t, "service.observe", action, 1)
		resp, err := http.Post(srv.URL+"/v1/sessions/"+created.ID+"/observe", "application/json", strings.NewReader(string(body)))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
			t.Fatalf("injected service.observe %s: status %d Retry-After %q (%s), want retriable 503",
				action, resp.StatusCode, resp.Header.Get("Retry-After"), msg)
		}
	}
}

func TestDegradedWALSurfacesInHealthzAndMetrics(t *testing.T) {
	m, _ := fileStoreManager(t, store.FileOptions{SyncEachAppend: true})
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()

	var created StatusResponse
	if code := doJSON(t, http.MethodPost, srv.URL+"/v1/sessions", CreateRequest{Backend: "bo", Workload: "SVM"}, &created); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	var sug SuggestResponse
	if code := doJSON(t, http.MethodPost, srv.URL+"/v1/sessions/"+created.ID+"/suggest", nil, &sug); code != http.StatusOK {
		t.Fatalf("suggest: status %d", code)
	}

	// A persistent fsync fault degrades the WAL on the next journaled write.
	armServiceFault(t, "store.fsync", "error", 1)
	code := doJSON(t, http.MethodPost, srv.URL+"/v1/sessions/"+created.ID+"/observe", ObserveRequest{Config: sug.Config, RuntimeSec: 100}, nil)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("observe during fsync fault: status %d, want 503", code)
	}
	fault.DisarmAll()

	// Degradation is sticky: healthz flips to 503 so the router routes
	// around the node and promotes its replica.
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hz map[string]any
	_ = json.NewDecoder(resp.Body).Decode(&hz)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz on degraded node: status %d, want 503", resp.StatusCode)
	}
	if ok, _ := hz["ok"].(bool); ok {
		t.Fatalf("healthz body claims ok on a degraded node: %v", hz)
	}
	if reason, _ := hz["degraded"].(string); reason == "" {
		t.Fatalf("healthz missing degraded reason: %v", hz)
	}

	var mt struct {
		WALDegraded       bool   `json:"wal_degraded"`
		WALDegradedReason string `json:"wal_degraded_reason"`
	}
	if code := doJSON(t, http.MethodGet, srv.URL+"/v1/metrics", nil, &mt); code != http.StatusOK {
		t.Fatalf("metrics: status %d", code)
	}
	if !mt.WALDegraded || mt.WALDegradedReason == "" {
		t.Fatalf("metrics missing degraded state: %+v", mt)
	}

	// Every subsequent write is a retriable 503, and reads still work.
	code = doJSON(t, http.MethodPost, srv.URL+"/v1/sessions/"+created.ID+"/observe", ObserveRequest{Config: sug.Config, RuntimeSec: 100}, nil)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("observe on degraded node: status %d, want 503", code)
	}
	if code := doJSON(t, http.MethodGet, srv.URL+"/v1/sessions/"+created.ID, nil, nil); code != http.StatusOK {
		t.Fatalf("read on degraded node: status %d, want 200", code)
	}
}
