package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"relm/internal/conf"
	"relm/internal/store"
)

// TestHTTPSurrogateRoundTrip: every BO and GBO session runs the one
// surrogate, the exact RBF-kernel GP on its fixed refit schedule, and the
// session status reports its work counters. Nothing configures it: a create
// or adopt body that carries a `surrogate` object, or any of the fields it
// once held, is a 400 that names the field and journals nothing.
func TestHTTPSurrogateRoundTrip(t *testing.T) {
	tp := &tape{Store: store.NewMem()}
	srv := httptest.NewServer(NewHandler(newTestManager(t, Options{Workers: 2, Store: tp})))
	t.Cleanup(srv.Close)
	refused := func(t *testing.T, path, body, field string) {
		t.Helper()
		lines := len(tp.lines)
		var e errorJSON
		if code := doJSON(t, http.MethodPost, srv.URL+path, json.RawMessage(body), &e); code != http.StatusBadRequest || !strings.Contains(e.Error, `"`+field+`"`) {
			t.Fatalf("POST %s %s: status %d %q, want 400 naming %q", path, body, code, e.Error, field)
		}
		if n := len(tp.lines) - lines; n != 0 {
			t.Fatalf("POST %s %s: the refusal journaled %d records", path, body, n)
		}
	}

	t.Run("nested object", func(t *testing.T) {
		for _, obj := range []string{`{}`, `{"kernel":"rbf"}`, `{"refit_every":-3}`, `{"budget":8}`} {
			refused(t, "/v1/sessions", `{"backend":"bo","workload":"K-means","surrogate":`+obj+`}`, "surrogate")
		}
	})

	// The pre-object spellings are gone too; an old client must hear about
	// it: an unknown field is a 400, never a silently defaulted surrogate.
	t.Run("deprecated flat fields", func(t *testing.T) {
		for _, field := range []string{`"kernel":"rbf"`, `"surrogate_budget":8`, `"refit_every":3`, `"refit_drift":0.1`, `"prior_points":[]`} {
			refused(t, "/v1/sessions", `{"backend":"bo","workload":"K-means",`+field+`}`, strings.Split(field, `"`)[1])
		}
	})

	// A drain from an older node hands over a session created with the
	// object: its adopt is refused, and the same snapshot without it adopts.
	t.Run("adopt", func(t *testing.T) {
		now := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
		body, err := json.Marshal(store.SessionSnapshot{ID: "handed", Spec: Spec{Backend: "bo", Workload: "K-means"},
			State: StateActive, Created: now, LastUsed: now})
		if err != nil {
			t.Fatal(err)
		}
		old := bytes.Replace(body, []byte(`"workload":"K-means"`), []byte(`"workload":"K-means","surrogate":{"kernel":"rbf"}`), 1)
		refused(t, "/v1/handoff/adopt", string(old), "surrogate")
		if code := doJSON(t, http.MethodPost, srv.URL+"/v1/handoff/adopt", json.RawMessage(body), nil); code != http.StatusCreated {
			t.Fatalf("adopt without the object: status %d, want 201", code)
		}
	})

	// A kernel the GP never had is refused the same way as one it has: the
	// object itself is the unknown field, so the 400 names it.
	t.Run("unknown kernel rejected", func(t *testing.T) {
		refused(t, "/v1/sessions", `{"backend":"bo","workload":"K-means","surrogate":{"kernel":"periodic"}}`, "surrogate")
	})

	t.Run("default is exact rbf", func(t *testing.T) {
		final := driveHTTPSession(t, srv.URL, CreateRequest{Backend: "bo", Workload: "K-means", Seed: 31}, 25)
		if final.Surrogate == nil || final.Surrogate.Fits == 0 || final.Surrogate.Appends == 0 {
			t.Fatalf("status after a full session reports surrogate %+v, want fits and appends", final.Surrogate)
		}
	})

	t.Run("non-bo backends omit the object", func(t *testing.T) {
		var created StatusResponse
		code := doJSON(t, http.MethodPost, srv.URL+"/v1/sessions", CreateRequest{
			Backend: "relm", Workload: "K-means",
		}, &created)
		if code != http.StatusCreated {
			t.Fatalf("create: status %d", code)
		}
		if created.Surrogate != nil {
			t.Fatalf("relm session reports a surrogate: %+v", created.Surrogate)
		}
	})
}

// Cumulative surrogate counters surface in /v1/metrics (JSON) and the
// Prometheus exposition.
func TestHTTPMetricsSurrogateCounters(t *testing.T) {
	srv := newTestServer(t)
	driveHTTPSession(t, srv.URL, CreateRequest{Backend: "bo", Workload: "K-means", Seed: 7}, 25)

	var mt struct {
		SurrogateFits    int64 `json:"surrogate_fits"`
		SurrogateAppends int64 `json:"surrogate_appends"`
	}
	if code := doJSON(t, http.MethodGet, srv.URL+"/v1/metrics", nil, &mt); code != http.StatusOK {
		t.Fatalf("metrics: status %d", code)
	}
	if mt.SurrogateFits == 0 || mt.SurrogateAppends == 0 {
		t.Fatalf("metrics report %d surrogate fits and %d appends after a whole session", mt.SurrogateFits, mt.SurrogateAppends)
	}

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"relm_surrogate_fits_total", "relm_surrogate_appends_total"} {
		if !strings.Contains(string(body), name) {
			t.Fatalf("Prometheus exposition lacks %s", name)
		}
	}
}

// A journaled budget of -1 (the old "force exact"), an explicit cap of 48,
// an absent block (the old "inherit the node default"), the old defaults
// spelled out and a Matérn kernel with its own refit period all replay onto
// the one model: raw create records spelled each way, crashed after 10
// observations with a suggestion outstanding, reopen to a session that
// continues with exactly the suggestions an uninterrupted manager makes, to
// its stopping rule.
func TestJournaledBudgetsReplayOntoOneModel(t *testing.T) {
	const crashAt = 10
	// drive steps a session to completion (or to stop observations),
	// returning every suggestion made, the outstanding one included.
	drive := func(m *Manager, id string, from, stop int) (sugs []conf.Config) {
		for step := from; ; step++ {
			cfg, done, err := m.Suggest(id)
			if err != nil {
				t.Fatal(err)
			}
			if done {
				return sugs
			}
			sugs = append(sugs, cfg)
			if step == stop {
				return sugs
			}
			if _, err := m.Observe(id, measure(t, "A", "K-means", Observation{Config: cfg}, uint64(step))); err != nil {
				t.Fatal(err)
			}
		}
	}
	spec := Spec{ID: "s-1", Backend: "gbo", Workload: "K-means", Seed: 3, MaxIterations: 14}

	ref := newTestManager(t, Options{Workers: 1})
	if _, err := ref.Create(spec); err != nil {
		t.Fatal(err)
	}
	want := drive(ref, spec.ID, 0, -1)
	if len(want) < crashAt+3 {
		t.Fatalf("uninterrupted session made only %d suggestions; the crash point needs more", len(want))
	}

	m1, dir := fileStoreManager(t, store.FileOptions{})
	if _, err := m1.Create(spec); err != nil {
		t.Fatal(err)
	}
	got := drive(m1, spec.ID, 0, crashAt)
	crash(m1)
	log, err := os.ReadFile(filepath.Join(dir, "wal-000001.jsonl"))
	if err != nil {
		t.Fatal(err)
	}

	const bare = `"max_iterations":14}`
	if bytes.Count(log, []byte(bare)) != 1 {
		t.Fatalf("the log does not spell the create record's spec once as %s:\n%s", bare, log)
	}
	for _, tc := range []struct{ name, block string }{
		{"budget -1", `,"surrogate":{"budget":-1}`},
		{"block absent", ``},
		{"budget 48", `,"surrogate":{"budget":48}`},
		{"old defaults", `,"surrogate":{"kernel":"rbf","refit_every":8,"refit_drift":0.25}`},
		{"matern52", `,"surrogate":{"kernel":"matern52","refit_every":3}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spelled := bytes.Replace(log, []byte(bare), []byte(`"max_iterations":14`+tc.block+`}`), 1)
			d := t.TempDir()
			if err := os.WriteFile(filepath.Join(d, "wal-000001.jsonl"), spelled, 0o644); err != nil {
				t.Fatal(err)
			}
			m2 := reopen(t, d)
			// The outstanding suggestion is re-served, then the run goes on.
			got := append(got[:crashAt:crashAt], drive(m2, spec.ID, crashAt, -1)...)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("restored session diverged from the uninterrupted one:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}
