package service

import (
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"relm/internal/conf"
	"relm/internal/gp"
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
		if created.Surrogate == nil || created.Surrogate.Kind != "rbf" || created.Surrogate.Budget != gp.DefaultSparseBudget {
			t.Fatalf("default surrogate should be rbf, exact up to the default cap: %+v", created.Surrogate)
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

// budget means one thing, a positive active-set cap: unset, 0 and negative
// all resolve to the default, an explicit cap wins.
func TestSurrogateSpecBudgetDefaults(t *testing.T) {
	m := NewManager(Options{Workers: 1})
	t.Cleanup(m.Close)

	for _, tc := range []struct{ budget, want int }{
		{0, gp.DefaultSparseBudget},
		{-1, gp.DefaultSparseBudget},
		{16, 16},
	} {
		st, err := m.Create(Spec{Backend: "bo", Workload: "K-means", Surrogate: SurrogateSpec{Budget: tc.budget}})
		if err != nil {
			t.Fatal(err)
		}
		if st.Surrogate == nil || st.Surrogate.Budget != tc.want {
			t.Fatalf("spec budget %d resolved to %+v, want %d", tc.budget, st.Surrogate, tc.want)
		}
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

	var mt struct {
		SurrogateFits        int64 `json:"surrogate_fits"`
		SurrogateCompactions int64 `json:"surrogate_compactions"`
	}
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

// A journaled budget of -1 (the old "force exact"), an absent block (the old
// "inherit the node default") and an explicit cap all replay onto the one
// model: crashed after 10 observations with a suggestion outstanding, the
// restored session continues with exactly the suggestions an uninterrupted
// manager makes — and, while the stream fits the cap, the three are the
// same session.
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

	var first []conf.Config
	for _, tc := range []struct {
		name   string
		budget int
		want   *store.SurrogateSpec // the create event's journaled block
	}{
		{"budget -1", -1, &store.SurrogateSpec{Budget: -1}},
		{"block absent", 0, nil},
		{"budget 48", 48, &store.SurrogateSpec{Budget: 48}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := Spec{Backend: "gbo", Workload: "K-means", Seed: 3, MaxIterations: 14,
				Surrogate: SurrogateSpec{Budget: tc.budget}}

			ref := newTestManager(t, Options{Workers: 1})
			st, err := ref.Create(spec)
			if err != nil {
				t.Fatal(err)
			}
			want := drive(ref, st.ID, 0, -1)
			if len(want) < crashAt+3 {
				t.Fatalf("uninterrupted session made only %d suggestions; the crash point needs more", len(want))
			}

			mem := store.NewMem()
			m1, err := Open(Options{Workers: 1, Store: mem})
			if err != nil {
				t.Fatal(err)
			}
			if st, err = m1.Create(spec); err != nil {
				t.Fatal(err)
			}
			got := drive(m1, st.ID, 0, crashAt)
			crash(m1)

			_, events, err := mem.Load()
			if err != nil {
				t.Fatal(err)
			}
			if ev := events[0]; ev.Type != store.EventCreate || !reflect.DeepEqual(ev.Spec.Surrogate, tc.want) {
				t.Fatalf("create event journaled surrogate %+v, want %+v", ev.Spec.Surrogate, tc.want)
			}

			m2, err := Open(Options{Workers: 1, Store: mem})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(m2.Close)
			// The outstanding suggestion is re-served, then the run goes on.
			got = append(got[:crashAt], drive(m2, st.ID, crashAt, -1)...)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("restored session diverged from the uninterrupted one:\n got %+v\nwant %+v", got, want)
			}
			if first == nil {
				first = want
			} else if !reflect.DeepEqual(want, first) {
				t.Fatalf("budget %d tuned differently from budget -1 with the stream under both caps", tc.budget)
			}
		})
	}
}
