package service

import (
	"io"
	"net/http"
	"strings"
	"testing"

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
				Budget:     8,
				RefitEvery: 3,
			},
		}, 25)
		if final.Surrogate == nil {
			t.Fatal("status carries no surrogate object")
		}
		if final.Surrogate.Kind != "matern52" {
			t.Fatalf("surrogate kind = %q, want matern52", final.Surrogate.Kind)
		}
		if final.Surrogate.Budget != 8 {
			t.Fatalf("surrogate budget = %d, want 8", final.Surrogate.Budget)
		}
		if final.Surrogate.Fits == 0 {
			t.Fatal("surrogate recorded no fits after a full session")
		}
		if final.Evals > 8 && final.Surrogate.Compactions == 0 {
			t.Fatalf("%d evals against budget 8 recorded no compactions", final.Evals)
		}
	})

	// The pre-object spellings are gone, and an old client must hear about
	// it: an unknown field is a 400, never a silently defaulted surrogate.
	t.Run("deprecated flat fields", func(t *testing.T) {
		for _, field := range []string{`"kernel":"matern52"`, `"surrogate_budget":8`, `"refit_every":3`, `"refit_drift":0.1`, `"prior_points":[]`} {
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
		if created.Surrogate == nil || created.Surrogate.Kind != "rbf" || created.Surrogate.Budget != 0 {
			t.Fatalf("default surrogate should be exact rbf: %+v", created.Surrogate)
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

// Options.SurrogateBudget is the manager-wide default: spec budget 0
// inherits it, a negative spec budget forces the exact model back.
func TestManagerDefaultSurrogateBudget(t *testing.T) {
	m := NewManager(Options{Workers: 1, SurrogateBudget: 32})
	t.Cleanup(m.Close)

	st, err := m.Create(Spec{Backend: "bo", Workload: "K-means"})
	if err != nil {
		t.Fatal(err)
	}
	if st.Surrogate == nil || st.Surrogate.Budget != 32 {
		t.Fatalf("spec budget 0 should inherit the manager default 32: %+v", st.Surrogate)
	}

	st, err = m.Create(Spec{Backend: "bo", Workload: "K-means", Surrogate: SurrogateSpec{Budget: -1}})
	if err != nil {
		t.Fatal(err)
	}
	if st.Surrogate == nil || st.Surrogate.Budget != 0 {
		t.Fatalf("negative spec budget should force the exact model: %+v", st.Surrogate)
	}

	st, err = m.Create(Spec{Backend: "bo", Workload: "K-means", Surrogate: SurrogateSpec{Budget: 16}})
	if err != nil {
		t.Fatal(err)
	}
	if st.Surrogate == nil || st.Surrogate.Budget != 16 {
		t.Fatalf("explicit spec budget should win: %+v", st.Surrogate)
	}
}

// Cumulative surrogate counters surface in /v1/metrics (JSON) and the
// Prometheus exposition, including the new compactions counter.
func TestHTTPMetricsSurrogateCounters(t *testing.T) {
	srv := newTestServer(t)
	driveHTTPSession(t, srv.URL, CreateRequest{
		Backend: "bo", Workload: "K-means", Seed: 7,
		Surrogate: &SurrogateSpec{Budget: 6},
	}, 25)

	var mt MetricsResponse
	if code := doJSON(t, http.MethodGet, srv.URL+"/v1/metrics", nil, &mt); code != http.StatusOK {
		t.Fatalf("metrics: status %d", code)
	}
	if mt.SurrogateFits == 0 {
		t.Fatal("metrics report no surrogate fits")
	}
	if mt.SurrogateCompactions == 0 {
		t.Fatal("metrics report no surrogate compactions for a budget-6 session")
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
	if !strings.Contains(string(body), "relm_surrogate_compactions_total") {
		t.Fatal("Prometheus exposition lacks relm_surrogate_compactions_total")
	}
}

// The surrogate spec must survive the WAL: a budgeted session restored
// from the journal keeps its resolved configuration.
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
		Surrogate: SurrogateSpec{Kernel: "matern52", Budget: 48, RefitEvery: 5}})
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
	if st2.Surrogate == nil || st2.Surrogate.Kind != "matern52" || st2.Surrogate.Budget != 48 {
		t.Fatalf("surrogate spec lost across restart: %+v", st2.Surrogate)
	}
}
