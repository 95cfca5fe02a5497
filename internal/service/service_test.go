package service

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"relm/internal/conf"
	"relm/internal/profile"
	"relm/internal/sim"
	"relm/internal/sim/cluster"
	"relm/internal/sim/workload"
)

func newTestManager(t *testing.T, opts Options) *Manager {
	t.Helper()
	m := NewManager(opts)
	t.Cleanup(m.Close)
	return m
}

// measure simulates one real experiment for a remote session's observation.
func measure(t *testing.T, clName, wlName string, o Observation, seed uint64) Observation {
	t.Helper()
	cl, okCl := cluster.ByName(clName)
	wl, ok := workload.ByName(wlName)
	if !ok || !okCl {
		t.Fatalf("unknown cluster %q or workload %q", clName, wlName)
	}
	res, prof := sim.Run(cl, wl, o.Config, seed)
	st := profile.Generate(prof)
	return Observation{Config: o.Config, RuntimeSec: res.RuntimeSec, Aborted: res.Aborted, Stats: &st}
}

func TestCreateRejectsUnknownSpecs(t *testing.T) {
	m := newTestManager(t, Options{Workers: 1})
	cases := []Spec{
		{Backend: "simulated-annealing"},
		{Workload: "NoSuchApp"},
		{Cluster: "C"},
		{Mode: "psychic"},
	}
	for _, spec := range cases {
		if _, err := m.Create(spec); err == nil {
			t.Errorf("Create(%+v) succeeded, want error", spec)
		}
	}
	if m.Len() != 0 {
		t.Fatalf("failed creates leaked sessions: %d", m.Len())
	}
}

// TestRemoteLoopAllBackends drives one full suggest→observe→best loop per
// backend through the Manager, the way a remote client reporting real
// measurements would (the "measurements" come from the simulator here).
func TestRemoteLoopAllBackends(t *testing.T) {
	for _, backend := range []string{"relm", "bo", "gbo", "ddpg"} {
		t.Run(backend, func(t *testing.T) {
			m := newTestManager(t, Options{Workers: 1})
			st, err := m.Create(Spec{
				Backend:       backend,
				Workload:      "K-means",
				Seed:          7,
				MaxIterations: 3, // BO/GBO: keep the loop short
				MaxSteps:      3, // DDPG
			})
			if err != nil {
				t.Fatal(err)
			}
			id := st.ID

			for step := 0; step < 40; step++ {
				cfg, done, err := m.Suggest(id)
				if err != nil {
					t.Fatal(err)
				}
				if done {
					break
				}
				obs := measure(t, "A", "K-means", Observation{Config: cfg}, uint64(100+step))
				if _, err := m.Observe(id, obs); err != nil {
					t.Fatal(err)
				}
			}

			final, err := m.Get(id)
			if err != nil {
				t.Fatal(err)
			}
			if !final.Done {
				t.Fatalf("%s session never finished: %+v", backend, final)
			}
			if final.State != StateDone {
				t.Fatalf("state = %q, want %q (err=%q)", final.State, StateDone, final.Err)
			}
			if final.Evals == 0 || final.Best == nil {
				t.Fatalf("status missing evals/best: %+v", final)
			}
			if final.Best.RuntimeSec <= 0 {
				t.Fatalf("best runtime %v", final.Best.RuntimeSec)
			}
			hist, err := m.History(id)
			if err != nil || len(hist) != final.Evals {
				t.Fatalf("history len %d want %d (err=%v)", len(hist), final.Evals, err)
			}
		})
	}
}

// TestRelMRemoteWithoutStatsFails: RelM is white-box; a remote client that
// reports only runtimes cannot feed it, and the session must fail loudly
// instead of looping.
func TestRelMRemoteWithoutStatsFails(t *testing.T) {
	m := newTestManager(t, Options{Workers: 1})
	st, err := m.Create(Spec{Backend: "relm", Workload: "PageRank"})
	if err != nil {
		t.Fatal(err)
	}
	cfg, _, err := m.Suggest(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	after, err := m.Observe(st.ID, Observation{Config: cfg, RuntimeSec: 120})
	if err != nil {
		t.Fatal(err)
	}
	if after.State != StateFailed || after.Err == "" {
		t.Fatalf("want failed state with error, got %+v", after)
	}
}

func TestAutoSessionsCompleteInWorkerPool(t *testing.T) {
	m := newTestManager(t, Options{Workers: 3})
	ids := make([]string, 0, 3)
	for i, backend := range []string{"relm", "bo", "gbo"} {
		st, err := m.Create(Spec{
			Backend:       backend,
			Workload:      "SVM",
			Mode:          ModeAuto,
			Seed:          uint64(i + 1),
			MaxIterations: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}

	deadline := time.Now().Add(60 * time.Second)
	for _, id := range ids {
		for {
			st, err := m.Get(id)
			if err != nil {
				t.Fatal(err)
			}
			if st.State == StateDone {
				if st.Best == nil || st.Evals == 0 {
					t.Fatalf("done session without best/evals: %+v", st)
				}
				break
			}
			if st.State == StateFailed {
				t.Fatalf("auto session failed: %+v", st)
			}
			if time.Now().After(deadline) {
				t.Fatalf("auto session %s stuck in %q", id, st.State)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}

// TestConcurrentSessions drives suggest/observe from 12 goroutines — 8 on
// their own sessions, 4 hammering two shared sessions — while auto sessions
// run in the worker pool. Run with -race.
func TestConcurrentSessions(t *testing.T) {
	m := newTestManager(t, Options{Workers: 2})

	shared := make([]string, 2)
	for i := range shared {
		st, err := m.Create(Spec{Backend: "bo", Workload: "WordCount", Seed: uint64(i), MaxIterations: 4})
		if err != nil {
			t.Fatal(err)
		}
		shared[i] = st.ID
	}
	if _, err := m.Create(Spec{Backend: "relm", Workload: "PageRank", Mode: ModeAuto, Seed: 3}); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 64)

	driveRemote := func(id string, worker int, steps int) {
		defer wg.Done()
		for i := 0; i < steps; i++ {
			cfg, done, err := m.Suggest(id)
			if err != nil {
				errs <- fmt.Errorf("suggest %s: %w", id, err)
				return
			}
			if done {
				return
			}
			// Synthetic measurement: cheap, deterministic, goroutine-dependent.
			rt := 100 + 10*math.Sin(float64(worker*steps+i))
			if _, err := m.Observe(id, Observation{Config: cfg, RuntimeSec: rt}); err != nil {
				errs <- fmt.Errorf("observe %s: %w", id, err)
				return
			}
			if _, err := m.Get(id); err != nil {
				errs <- fmt.Errorf("get %s: %w", id, err)
				return
			}
		}
	}

	// 8 goroutines, each with its own session.
	for g := 0; g < 8; g++ {
		st, err := m.Create(Spec{Backend: "bo", Workload: "SortByKey", Seed: uint64(10 + g), MaxIterations: 3})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go driveRemote(st.ID, g, 6)
	}
	// 4 goroutines sharing two sessions.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go driveRemote(shared[g%2], 100+g, 6)
	}
	// One goroutine reading global state throughout.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			m.List()
			m.Len()
		}
	}()

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	for _, id := range shared {
		st, err := m.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.Evals == 0 {
			t.Fatalf("shared session %s saw no observations", id)
		}
		hist, err := m.History(id)
		if err != nil || len(hist) != st.Evals {
			t.Fatalf("history mismatch for %s: %d vs %d", id, len(hist), st.Evals)
		}
	}
}

func TestTTLEviction(t *testing.T) {
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	m := newTestManager(t, Options{Workers: 1, TTL: time.Minute, Now: clock})

	st, err := m.Create(Spec{Backend: "bo", Workload: "SVM"})
	if err != nil {
		t.Fatal(err)
	}
	if n := m.Sweep(); n != 0 {
		t.Fatalf("fresh session evicted: %d", n)
	}

	now = now.Add(2 * time.Minute)
	if n := m.Sweep(); n != 1 {
		t.Fatalf("Sweep evicted %d sessions, want 1", n)
	}
	if _, _, err := m.Suggest(st.ID); err != ErrNotFound {
		t.Fatalf("Suggest after eviction: %v, want ErrNotFound", err)
	}
	if m.Len() != 0 {
		t.Fatalf("Len = %d after eviction", m.Len())
	}
}

func TestCloseSession(t *testing.T) {
	m := newTestManager(t, Options{Workers: 1})
	st, err := m.Create(Spec{Backend: "bo", Workload: "SVM"})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.CloseSession(st.ID); err != nil {
		t.Fatal(err)
	}
	if err := m.CloseSession(st.ID); err != nil {
		t.Fatalf("double close: %v, want idempotent nil", err)
	}
	if _, err := m.Observe(st.ID, Observation{Config: conf.Default(), RuntimeSec: 1}); err != ErrNotFound {
		t.Fatalf("observe after close: %v, want ErrNotFound", err)
	}
	if err := m.CloseSession("sess-999"); err != ErrNotFound {
		t.Fatalf("close of unknown session: %v, want ErrNotFound", err)
	}
}

func TestObserveRejectsBadRuntimes(t *testing.T) {
	m := newTestManager(t, Options{Workers: 1})
	st, err := m.Create(Spec{Backend: "bo", Workload: "SVM"})
	if err != nil {
		t.Fatal(err)
	}
	cfg, _, err := m.Suggest(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	for _, rt := range []float64{0, -5, math.NaN(), math.Inf(1)} {
		if _, err := m.Observe(st.ID, Observation{Config: cfg, RuntimeSec: rt}); err == nil {
			t.Errorf("Observe accepted runtime %v", rt)
		}
	}
	// Rejected observations must not consume the suggestion.
	again, _, err := m.Suggest(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if again != cfg {
		t.Fatalf("suggestion changed after rejected observes: %v vs %v", again, cfg)
	}
}

func TestSessionLimit(t *testing.T) {
	m := newTestManager(t, Options{Workers: 1, MaxSessions: 2})
	for i := 0; i < 2; i++ {
		if _, err := m.Create(Spec{Backend: "bo"}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Create(Spec{Backend: "bo"}); err != ErrTooMany {
		t.Fatalf("third create: %v, want ErrTooMany", err)
	}
}

// TestOpenRefusesNegativeOptions: a negative TTL would evict every session
// within a second, a negative session limit refuse every create, a negative
// worker pool never run an auto session, a negative SnapshotEvery signal the
// snapshotter on every append and a negative WarmMaxDistance turn every warm
// start off; Open refuses each, naming it. A negative RepoCapacity stays
// legal: it means unbounded.
func TestOpenRefusesNegativeOptions(t *testing.T) {
	for _, tt := range []struct {
		name string
		opts Options
	}{
		{"TTL", Options{TTL: -time.Minute}},
		{"MaxSessions", Options{MaxSessions: -1}},
		{"Workers", Options{Workers: -1}},
		{"SnapshotEvery", Options{SnapshotEvery: -1}},
		{"WarmMaxDistance", Options{WarmMaxDistance: -0.1}},
	} {
		t.Run(tt.name, func(t *testing.T) {
			m, err := Open(tt.opts)
			if err == nil {
				m.Close()
				t.Fatalf("Open accepted a negative %s", tt.name)
			}
			if !strings.Contains(err.Error(), tt.name) {
				t.Fatalf("refusal %q does not name %s", err, tt.name)
			}
		})
	}
	m, err := Open(Options{RepoCapacity: -1})
	if err != nil {
		t.Fatalf("Open refused an unbounded repository: %v", err)
	}
	m.Close()
}

// TestConcurrentSessionsSurrogateScratch hammers many sessions from
// concurrent goroutines through the incremental surrogate hot path — each
// session's tuner owns its acquisition/prediction scratch, so parallel
// observes must neither race (verified under -race in CI) nor cross-wire
// suggestions between sessions.
func TestConcurrentSessionsSurrogateScratch(t *testing.T) {
	m := newTestManager(t, Options{Workers: 1})
	const sessions = 6
	ids := make([]string, sessions)
	for i := range ids {
		backend := "bo"
		if i%2 == 1 {
			backend = "gbo"
		}
		st, err := m.Create(Spec{Backend: backend, Workload: "SVM", Seed: uint64(i + 1), MaxIterations: 40})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = st.ID
	}
	var wg sync.WaitGroup
	for i, id := range ids {
		wg.Add(1)
		go func(i int, id string) {
			defer wg.Done()
			for step := 0; step < 18; step++ {
				cfg, done, err := m.Suggest(id)
				if err != nil {
					t.Errorf("session %s: suggest: %v", id, err)
					return
				}
				if done {
					return
				}
				obs := measure(t, "A", "SVM", Observation{Config: cfg}, uint64(i*100+step))
				if _, err := m.Observe(id, obs); err != nil {
					t.Errorf("session %s: observe: %v", id, err)
					return
				}
			}
		}(i, id)
	}
	wg.Wait()

	mt := m.Metrics()
	if mt.SurrogateAppends == 0 {
		t.Fatal("no incremental surrogate appends recorded across concurrent sessions")
	}
	if mt.SurrogateFits == 0 {
		t.Fatal("no surrogate hyperparameter selections recorded")
	}
	if mt.SurrogateAppends < mt.SurrogateFits {
		t.Fatalf("appends (%d) should dominate full fits (%d) on the incremental path",
			mt.SurrogateAppends, mt.SurrogateFits)
	}
}
