package service

import (
	"bytes"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"relm/internal/conf"
	"relm/internal/store"
)

// Satellite acceptance: the surrogate configuration round-trips through the
// HTTP API as the nested `surrogate` object, and the session status reports
// the resolved configuration plus live work counters.
func TestHTTPSurrogateRoundTrip(t *testing.T) {
	srv := newTestServer(t)

	t.Run("nested object", func(t *testing.T) {
		final := driveHTTPSession(t, srv.URL, CreateRequest{
			Backend:  "bo",
			Workload: "K-means",
			Cluster:  "A",
			Seed:     31,
			Surrogate: &SurrogateSpec{
				Kernel:     "matern52",
				RefitEvery: 3,
			},
		}, 25)
		if final.Surrogate == nil {
			t.Fatal("status carries no surrogate object")
		}
		if final.Surrogate.Kind != "matern52" {
			t.Fatalf("surrogate kind = %q, want matern52", final.Surrogate.Kind)
		}
		if final.Surrogate.Fits == 0 {
			t.Fatal("surrogate recorded no fits after a full session")
		}
	})

	// The pre-object spellings are gone, and so is the active-set budget;
	// an old client must hear about it: an unknown field is a 400, never a
	// silently defaulted surrogate.
	t.Run("deprecated flat fields", func(t *testing.T) {
		for _, field := range []string{`"kernel":"matern52"`, `"surrogate_budget":8`, `"refit_every":3`, `"refit_drift":0.1`, `"prior_points":[]`, `"surrogate":{"budget":8}`} {
			body := `{"backend":"bo","workload":"K-means",` + field + `}`
			if code := doRaw(t, http.MethodPost, srv.URL+"/v1/sessions", body); code != http.StatusBadRequest {
				t.Fatalf("create with removed field %s: status %d, want 400", field, code)
			}
		}
	})

	t.Run("default is exact rbf", func(t *testing.T) {
		var created StatusResponse
		code := doJSON(t, http.MethodPost, srv.URL+"/v1/sessions", CreateRequest{
			Backend: "bo", Workload: "K-means",
		}, &created)
		if code != http.StatusCreated {
			t.Fatalf("create: status %d", code)
		}
		if created.Surrogate == nil || created.Surrogate.Kind != "rbf" {
			t.Fatalf("default surrogate should be rbf: %+v", created.Surrogate)
		}
	})

	t.Run("unknown kernel rejected", func(t *testing.T) {
		code := doJSON(t, http.MethodPost, srv.URL+"/v1/sessions", CreateRequest{
			Backend: "bo", Workload: "K-means",
			Surrogate: &SurrogateSpec{Kernel: "periodic"},
		}, nil)
		if code != http.StatusBadRequest {
			t.Fatalf("unknown kernel: status %d, want 400", code)
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

// The surrogate spec must survive the WAL: a session restored from the
// journal keeps its resolved configuration.
func TestSurrogateSpecSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	fs, err := store.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Open(Options{Workers: 1, Store: fs})
	if err != nil {
		t.Fatal(err)
	}
	st, err := m.Create(Spec{Backend: "bo", Workload: "K-means",
		Surrogate: SurrogateSpec{Kernel: "matern52", RefitEvery: 5}})
	if err != nil {
		t.Fatal(err)
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
	t.Cleanup(m2.Close)
	st2, err := m2.Get(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Surrogate == nil || st2.Surrogate.Kind != "matern52" {
		t.Fatalf("surrogate spec lost across restart: %+v", st2.Surrogate)
	}
}

// A journaled budget of -1 (the old "force exact"), an explicit cap of 48
// and an absent block (the old "inherit the node default") all replay onto
// the one exact model: raw create records spelled each way, crashed after
// 10 observations with a suggestion outstanding, reopen to a session that
// continues with exactly the suggestions an uninterrupted manager makes.
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
