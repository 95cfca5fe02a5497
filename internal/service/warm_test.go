package service

import (
	"reflect"
	"testing"
	"time"

	"relm/internal/bo"
	"relm/internal/conf"
	"relm/internal/profile"
	"relm/internal/sim/cluster"
	"relm/internal/sim/workload"
	"relm/internal/tune"
)

// TestRunWithReuseIsAnAutoSession: there is one §6.6 protocol. The offline
// bo.RunWithReuse and a served auto session with warm_start, given the same
// seed and the same repository, run the same experiments in the same order
// and leave the same model behind — on a miss (empty repository) and on a
// hit alike — so an offline warm-start number and a served one measure the
// same thing.
func TestRunWithReuseIsAnAutoSession(t *testing.T) {
	const maxDistance = 0.25
	cl := cluster.A()
	wl, _ := workload.ByName("K-means")
	repo := &bo.Repository{}

	for _, tc := range []struct {
		name   string
		seed   uint64
		reused bool
	}{{"miss", 7, false}, {"hit", 8, true}} {
		m := newTestManager(t, Options{Workers: 1})
		if got := m.ImportRepository(repo.Entries); got != len(repo.Entries) {
			t.Fatalf("%s: imported %d of %d entries", tc.name, got, len(repo.Entries))
		}

		ev := tune.NewEvaluator(cl, wl, tc.seed)
		res, reused := bo.RunWithReuse(ev, bo.Options{Seed: tc.seed}, repo, maxDistance)
		if reused != tc.reused || !res.Found {
			t.Fatalf("%s: offline reused=%v found=%v", tc.name, reused, res.Found)
		}

		st, err := m.Create(Spec{Backend: "bo", Workload: wl.Name, Mode: ModeAuto, Seed: tc.seed,
			WarmStart: true, WarmMaxDistance: maxDistance})
		if err != nil {
			t.Fatal(err)
		}
		final := waitState(t, m, st.ID, StateDone)
		if final.WarmStarted != tc.reused {
			t.Fatalf("%s: served warm_started=%v", tc.name, final.WarmStarted)
		}
		hist, err := m.History(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		var served, offline []conf.Config
		for _, h := range hist {
			served = append(served, h.Config)
		}
		for _, s := range ev.History() {
			offline = append(offline, s.Config)
		}
		if !reflect.DeepEqual(served, offline) {
			t.Fatalf("%s: experiments differ\n served  %+v\n offline %+v", tc.name, served, offline)
		}
		if final.Best == nil || final.Best.Config != res.Best.Config || final.Best.RuntimeSec != res.Best.RuntimeSec {
			t.Fatalf("%s: served best %+v, offline best %+v", tc.name, final.Best, res.Best)
		}
		entries := m.Repository().Entries
		harvested, added := entries[len(entries)-1], repo.Entries[len(repo.Entries)-1]
		if !reflect.DeepEqual(harvested.Points, added.Points) ||
			harvested.Fingerprint != added.Fingerprint || harvested.DefaultSec != added.DefaultSec {
			t.Fatalf("%s: harvested model differs\n served  %+v\n offline %+v", tc.name, harvested, added)
		}
	}
}

// TestWarmStartAsksTheBackendFirst: relm and ddpg take no priors, so a
// warm_start create on them must leave the repository exactly as it was —
// no hit counted, no LRU stamp refreshed (which would shield the entry from
// eviction for a warm start that never happened). A bo create with the same
// fingerprint then bumps each once.
func TestWarmStartAsksTheBackendFirst(t *testing.T) {
	added := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	now := added.Add(time.Hour)
	m := newTestManager(t, Options{Workers: 1, Now: func() time.Time { return now }})
	fp := profile.Stats{N: 1, MhMB: 4404, CPUAvg: 0.6, DiskAvg: 0.1, MiMB: 115, McMB: 2300, MsMB: 12, MuMB: 310, P: 2, H: 0.7}
	cfg := conf.Default()
	if m.ImportRepository([]bo.RepoEntry{{
		Workload: "K-means", ClusterName: "A", Fingerprint: fp, DefaultSec: 120, AddedAt: added, LastUsed: added,
		Points: []bo.PriorPoint{{X: tune.NewSpace(cluster.A(), workload.KMeans()).Encode(cfg), Cfg: cfg, Y: 120}},
	}}) != 1 {
		t.Fatal("import failed")
	}
	check := func(when string, hits int64, entryHits uint64, lastUsed time.Time) {
		t.Helper()
		rep := m.RepositoryReport()
		if rep.Hits != hits || rep.Entries[0].Hits != entryHits || !rep.Entries[0].LastUsed.Equal(lastUsed) ||
			m.Metrics().WarmStarts != hits {
			t.Fatalf("%s: hits=%d warm_starts=%d entry=%+v, want hits=%d entry hits=%d last used %v",
				when, rep.Hits, m.Metrics().WarmStarts, rep.Entries[0], hits, entryHits, lastUsed)
		}
	}
	for _, backend := range []string{"relm", "ddpg"} {
		st, err := m.Create(Spec{Backend: backend, Workload: "K-means", WarmStart: true, Stats: &fp, DefaultRuntimeSec: 150})
		if err != nil {
			t.Fatal(err)
		}
		if st.WarmStarted {
			t.Fatalf("%s session claims a warm start: %+v", backend, st)
		}
		check(backend, 0, 0, added)
	}
	st, err := m.Create(Spec{Backend: "bo", Workload: "K-means", WarmStart: true, Stats: &fp, DefaultRuntimeSec: 150})
	if err != nil {
		t.Fatal(err)
	}
	if !st.WarmStarted {
		t.Fatalf("bo session not warm-started: %+v", st)
	}
	check("bo", 1, 1, now)
}
