package service

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"relm/internal/bo"
	"relm/internal/conf"
	"relm/internal/store"
)

// TestHistoryBoundRefusals: a session's history, a warm start's priors and
// an imported model hold at most maxHistory points, so a surrogate stays
// the exact GP at bounded cost. An observe, an import or an adopt past the
// bound is a 400 that journals nothing and leaves the session, the
// repository and the ID as they were: once refused, the same snapshots cut
// to the bound adopt, and a model at the bound imports.
func TestHistoryBoundRefusals(t *testing.T) {
	tp := &tape{Store: store.NewMem()}
	m := newTestManager(t, Options{Workers: 1, Store: tp})
	srv := httptest.NewServer(NewHandler(m))
	t.Cleanup(srv.Close)

	// A session at the bound. Its tuner stops after five runs; the rest
	// re-measure the incumbent.
	st, err := m.Create(Spec{ID: "full", Backend: "bo", Workload: "K-means", Seed: 1, MaxIterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < maxHistory; i++ {
		cfg, _, err := m.Suggest(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Observe(st.ID, Observation{Config: cfg, RuntimeSec: 100 + float64(i%7)}); err != nil {
			t.Fatalf("observation %d: %v", i, err)
		}
	}
	s, err := m.get(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	full := sessionSnapshot(s)
	s.mu.Unlock()
	full.State = StateActive

	long := full
	long.ID, long.Spec.ID = "long", "long"
	long.History = append(slices.Clip(full.History), full.History[0])
	points := make([]bo.PriorPoint, maxHistory+1)
	for i := range points {
		points[i] = bo.PriorPoint{X: []float64{0.5, 0.5, 0.5, float64(i) / maxHistory}, Cfg: conf.Default(), Y: 100 + float64(i)}
	}
	warm := full
	warm.ID, warm.Spec.ID, warm.History = "warm", "warm", nil
	warm.Warm = &store.Warm{Source: "K-means", Cluster: "A", Points: points}
	model := func(n int) bo.RepoEntry {
		return bo.RepoEntry{Workload: fmt.Sprintf("W%d", n), ClusterName: "A", DefaultSec: 100, Points: points[:n]}
	}

	for _, tc := range []struct {
		name, path string
		body       any
		same       func() error // the state the refusal must leave as it was
	}{
		{"observe past the bound", "/v1/sessions/full/observe",
			ObserveRequest{Config: ConfigJSON(conf.Default()), RuntimeSec: 100},
			func() error {
				if h, err := m.History("full"); err != nil || len(h) != maxHistory {
					return fmt.Errorf("history of %d records (%v), want %d", len(h), err, maxHistory)
				}
				return nil
			}},
		{"import of an oversized model", "/v1/repository/import",
			RepoExportResponse{Models: []bo.RepoEntry{model(3), model(maxHistory + 1)}},
			func() error {
				if n := len(m.Repository().Entries); n != 0 {
					return fmt.Errorf("repository holds %d models, want 0", n)
				}
				return nil
			}},
		{"adopt of an oversized history", "/v1/handoff/adopt", long,
			func() error {
				if _, err := m.Get("long"); !errors.Is(err, ErrNotFound) {
					return fmt.Errorf("refused session: %v, want ErrNotFound", err)
				}
				return nil
			}},
		{"adopt of an oversized warm start", "/v1/handoff/adopt", warm,
			func() error {
				if _, err := m.Get("warm"); !errors.Is(err, ErrNotFound) {
					return fmt.Errorf("refused session: %v, want ErrNotFound", err)
				}
				return nil
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			lines := len(tp.lines)
			var e errorJSON
			code := doJSON(t, http.MethodPost, srv.URL+tc.path, tc.body, &e)
			if code != http.StatusBadRequest || !strings.Contains(e.Error, fmt.Sprintf("more than the %d", maxHistory)) {
				t.Fatalf("status %d %q, want 400 naming the bound", code, e.Error)
			}
			if n := len(tp.lines) - lines; n != 0 {
				t.Fatalf("the refusal journaled %d records", n)
			}
			if err := tc.same(); err != nil {
				t.Fatal(err)
			}
		})
	}

	long.History = long.History[:maxHistory]
	warm.Warm.Points = points[:maxHistory]
	for _, ss := range []store.SessionSnapshot{long, warm} {
		if _, err := m.Adopt(ss); err != nil {
			t.Fatalf("adopt %s at the bound: %v", ss.ID, err)
		}
	}
	if n, err := m.ImportRepository([]bo.RepoEntry{model(maxHistory)}); n != 1 || err != nil {
		t.Fatalf("import of a model at the bound: %d added, %v", n, err)
	}
}
