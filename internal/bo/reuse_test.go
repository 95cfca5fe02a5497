package bo

import (
	"testing"
	"time"

	"relm/internal/profile"
	"relm/internal/sim/cluster"
	"relm/internal/sim/workload"
	"relm/internal/tune"
)

func fingerprint(t *testing.T, wlName string, seed uint64) (profile.Stats, *tune.Evaluator) {
	t.Helper()
	wl, ok := workload.ByName(wlName)
	if !ok {
		t.Fatalf("workload %s", wlName)
	}
	ev := tune.NewEvaluator(cluster.A(), wl, seed)
	s := ev.Eval(ev.Space.Default())
	return profile.Generate(s.Profile), ev
}

func TestFingerprintDistanceProperties(t *testing.T) {
	svm, _ := fingerprint(t, "SVM", 1)
	svm2, _ := fingerprint(t, "SVM", 2)
	wc, _ := fingerprint(t, "WordCount", 3)

	if d := FingerprintDistance(svm, svm); d != 0 {
		t.Fatalf("self distance = %v", d)
	}
	same := FingerprintDistance(svm, svm2)
	diff := FingerprintDistance(svm, wc)
	if same >= diff {
		t.Fatalf("same workload must be closer than a different one: %v vs %v", same, diff)
	}
}

func TestRepositoryMatch(t *testing.T) {
	repo := &Repository{}
	svm, evSVM := fingerprint(t, "SVM", 1)
	km, _ := fingerprint(t, "K-means", 2)
	repo.Add("SVM", "A", svm, 500, evSVM.History())
	repo.Add("K-means", "A", km, 1100, nil)

	probe, _ := fingerprint(t, "SVM", 9)
	entry, d, ok := repo.Match("A", probe, 0.5)
	if !ok || entry.Workload != "SVM" {
		t.Fatalf("match = %v (d=%v)", entry, d)
	}
	// Hardware changes invalidate saved models (§6.6).
	if _, _, ok := repo.Match("B", probe, 0.5); ok {
		t.Fatal("cross-cluster match must be refused")
	}
	// An impossible distance bound yields no match.
	if _, _, ok := repo.Match("A", probe, 1e-9); ok {
		t.Fatal("tight bound should refuse")
	}
}

func TestRunWithReuseWarmStart(t *testing.T) {
	wl, _ := workload.ByName("SVM")
	repo := &Repository{}

	// Session 1: cold start fills the repository.
	ev1 := tune.NewEvaluator(cluster.A(), wl, 10)
	res1, reused1 := RunWithReuse(ev1, Options{Seed: 10, MaxIterations: 6, MinNewSamples: 2}, repo, 0.3)
	if reused1 {
		t.Fatal("first session cannot re-use")
	}
	if !res1.Found || len(repo.Entries) != 1 {
		t.Fatal("session not recorded")
	}
	coldEvals := ev1.Evals()

	// Session 2: the same workload matches and warm-starts.
	ev2 := tune.NewEvaluator(cluster.A(), wl, 11)
	res2, reused2 := RunWithReuse(ev2, Options{Seed: 11, MaxIterations: 6, MinNewSamples: 2}, repo, 0.3)
	if !reused2 {
		t.Fatal("second session should re-use the model")
	}
	if !res2.Found {
		t.Fatal("warm-started session found nothing")
	}
	// Warm start replaces the 4-sample bootstrap with a single confirmation
	// run, so the second session must use no more experiments than the first.
	if ev2.Evals() > coldEvals {
		t.Fatalf("warm session used %d evals vs cold %d", ev2.Evals(), coldEvals)
	}
	if len(repo.Entries) != 2 {
		t.Fatal("second session not recorded")
	}
}

func TestPriorPointsNeverBecomeIncumbent(t *testing.T) {
	wl, _ := workload.ByName("WordCount")
	ev := tune.NewEvaluator(cluster.A(), wl, 12)
	// A fake prior claiming an absurdly good objective must not be returned
	// as the best sample.
	prior := []PriorPoint{{
		X:   []float64{0.5, 0.5, 0.5, 0.5},
		Cfg: ev.Space.Decode([]float64{0.5, 0.5, 0.5, 0.5}),
		Y:   0.001,
	}}
	tn := NewTuner(ev.Space, Options{Seed: 12, MaxIterations: 2, MinNewSamples: 1}, nil, nil)
	tn.WarmStart(prior)
	tune.Drive(tn, ev, 0)
	res := tn.Result()
	if !res.Found {
		t.Fatal("no best")
	}
	if res.Best.Objective <= 0.01 {
		t.Fatal("a prior point leaked into the incumbent")
	}
}

// TestRepositoryEviction: EvictDown ranks least-recently-used first, with
// hit count and age as tie breaks, and never evicts below capacity.
func TestRepositoryEviction(t *testing.T) {
	at := func(sec int64) time.Time { return time.Unix(sec, 0) }
	repo := &Repository{Entries: []RepoEntry{
		{Workload: "old-unused", AddedAt: at(10), LastUsed: at(10)},
		{Workload: "hot", AddedAt: at(20), LastUsed: at(20)},
		{Workload: "cold", AddedAt: at(30), LastUsed: at(30)},
		{Workload: "fresh", AddedAt: at(40), LastUsed: at(40)},
	}}
	// Matching "hot" refreshes its recency and hit count.
	repo.Entries[1].Touch(at(100))
	if repo.Entries[1].Hits != 1 || !repo.Entries[1].LastUsed.Equal(at(100)) {
		t.Fatalf("touch bookkeeping: %+v", repo.Entries[1])
	}

	if ev := repo.EvictDown(4); ev != nil {
		t.Fatalf("eviction below capacity: %+v", ev)
	}
	if ev := repo.EvictDown(0); ev != nil {
		t.Fatalf("capacity 0 must mean unbounded, evicted %+v", ev)
	}
	evicted := repo.EvictDown(2)
	if len(evicted) != 2 || evicted[0].Workload != "old-unused" || evicted[1].Workload != "cold" {
		t.Fatalf("evicted %+v, want old-unused then cold (LRU order)", evicted)
	}
	var left []string
	for _, e := range repo.Entries {
		left = append(left, e.Workload)
	}
	if len(left) != 2 || left[0] != "hot" || left[1] != "fresh" {
		t.Fatalf("survivors = %v, want [hot fresh]", left)
	}

	// Same recency: fewer hits goes first.
	repo2 := &Repository{Entries: []RepoEntry{
		{Workload: "a", AddedAt: at(1), LastUsed: at(50), Hits: 3},
		{Workload: "b", AddedAt: at(2), LastUsed: at(50), Hits: 1},
	}}
	if ev := repo2.EvictDown(1); len(ev) != 1 || ev[0].Workload != "b" {
		t.Fatalf("hit-count tie break failed: %+v", ev)
	}
}
