package gbo

import (
	"math"
	"testing"

	"relm/internal/bo"
	"relm/internal/conf"
	"relm/internal/profile"
	"relm/internal/sim"
	"relm/internal/sim/cluster"
	"relm/internal/sim/workload"
	"relm/internal/simrand"
	"relm/internal/tune"
)

// statsFixture builds Table 6-like statistics for the model tests.
func statsFixture() profile.Stats {
	return profile.Stats{
		N: 1, MhMB: 4404, CPUAvg: 0.2, DiskAvg: 0.05,
		MiMB: 115, McMB: 2300, MsMB: 0, MuMB: 770,
		P: 2, H: 0.3, S: 0, HadFullGC: true, CoresPerNode: 8,
	}
}

func model() *Model { return NewModel(cluster.A(), statsFixture()) }

func TestQ1DetectsOverCommitment(t *testing.T) {
	m := model()
	// Generous cache and high concurrency on a small heap over-commits.
	unsafe := conf.Config{ContainersPerNode: 4, TaskConcurrency: 2, CacheCapacity: 0.8, NewRatio: 2, SurvivorRatio: 8}
	safe := conf.Config{ContainersPerNode: 1, TaskConcurrency: 1, CacheCapacity: 0.3, NewRatio: 2, SurvivorRatio: 8}
	qU, qS := m.Metrics(unsafe), m.Metrics(safe)
	if qU[0] <= 1 {
		t.Fatalf("unsafe q1 = %v, want > 1", qU[0])
	}
	if qS[0] >= qU[0] {
		t.Fatal("safe configuration must have lower expected occupancy")
	}
}

func TestQ2DetectsLongTermShortfall(t *testing.T) {
	m := model()
	// Tiny Old pool and tiny cache: long-term data cannot be stored.
	starved := conf.Config{ContainersPerNode: 1, TaskConcurrency: 2, CacheCapacity: 0.1, NewRatio: 1, SurvivorRatio: 8}
	roomy := conf.Config{ContainersPerNode: 1, TaskConcurrency: 2, CacheCapacity: 0.85, NewRatio: 6, SurvivorRatio: 8}
	if m.Metrics(starved)[1] <= m.Metrics(roomy)[1] {
		t.Fatal("q2 must flag long-term memory shortfall")
	}
}

func TestQ3DetectsShuffleOverEden(t *testing.T) {
	st := statsFixture()
	st.McMB, st.H = 0, 1
	st.MsMB = 1300 // shuffle-heavy profile
	m := NewModel(cluster.A(), st)
	storm := conf.Config{ContainersPerNode: 1, TaskConcurrency: 2, ShuffleCapacity: 0.7, NewRatio: 3, SurvivorRatio: 8}
	lean := conf.Config{ContainersPerNode: 1, TaskConcurrency: 2, ShuffleCapacity: 0.08, NewRatio: 1, SurvivorRatio: 8}
	qStorm, qLean := m.Metrics(storm), m.Metrics(lean)
	if qStorm[2] <= 1 {
		t.Fatalf("storm q3 = %v, want > 1 (batches beyond half Eden)", qStorm[2])
	}
	if qLean[2] >= qStorm[2] {
		t.Fatal("lean shuffle must score lower q3")
	}
}

func TestMetricsFiniteAcrossSpace(t *testing.T) {
	m := model()
	sp := tune.NewSpace(cluster.A(), workload.KMeans())
	for _, cfg := range sp.Grid() {
		q := m.Metrics(cfg)
		for i, v := range q {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				t.Fatalf("q%d = %v for %v", i+1, v, cfg)
			}
		}
	}
}

// TestPenaltyRange holds the acquisition penalty to (0, 1] — the range
// bo.Penalty requires, because the acquisition skips the penalty of a
// candidate whose raw expected improvement already cannot win. Q is built
// from the default configuration's profile on every workload and both
// clusters, and scores the grid plus random decoded points, whose
// capacities are continuous.
func TestPenaltyRange(t *testing.T) {
	rng := simrand.New(37)
	for _, cl := range []cluster.Spec{cluster.A(), cluster.B()} {
		for _, wl := range workload.Benchmarks() {
			ev := tune.NewEvaluator(cl, wl, 1)
			st, ok := ev.Eval(ev.Space.Default()).DeriveStats()
			if !ok {
				t.Fatalf("%s/%s: no profile statistics", cl.Name, wl.Name)
			}
			m := NewModel(cl, st)
			cfgs := ev.Space.Grid()
			for i := 0; i < 10000; i++ {
				x := make([]float64, ev.Space.Dim())
				for d := range x {
					x[d] = rng.Float64()
				}
				cfgs = append(cfgs, ev.Space.Decode(x))
			}
			for _, cfg := range cfgs {
				if p := m.AcquisitionPenalty(cfg); !(p > 0 && p <= 1) {
					t.Fatalf("%s/%s: penalty %v out of (0,1] for %+v", cl.Name, wl.Name, p, cfg)
				}
			}
		}
	}
}

func TestSquash(t *testing.T) {
	if squash(-1) != 0 {
		t.Fatal("negative squash")
	}
	if squash(0) != 0 {
		t.Fatal("zero squash")
	}
	if squash(1) <= squash(0.5) {
		t.Fatal("squash must be increasing")
	}
	if squash(1e9) >= 2.26 {
		t.Fatalf("squash unbounded: %v", squash(1e9))
	}
}

func TestRunBuildsModelFromFirstSample(t *testing.T) {
	ev := tune.NewEvaluator(cluster.A(), workload.KMeans(), 1)
	res, m := Run(ev, bo.Options{Seed: 1, UsePaperLHS: true, MaxIterations: 3, MinNewSamples: 1})
	if m == nil {
		t.Fatal("guide model missing")
	}
	if !res.Found {
		t.Fatal("no best found")
	}
	// The model must be derived from the first bootstrap sample.
	first := ev.History()[0]
	want := profile.Generate(first.Profile)
	if m.Stats.MhMB != want.MhMB {
		t.Fatal("model not built from the first profile")
	}
}

func TestGBOBeatsDefault(t *testing.T) {
	ev := tune.NewEvaluator(cluster.A(), workload.SVM(), 2)
	res, _ := Run(ev, bo.Options{Seed: 2, UsePaperLHS: true})
	def, _ := sim.Run(cluster.A(), workload.SVM(), conf.Default(), 999)
	if res.Best.RuntimeSec >= def.RuntimeSec {
		t.Fatalf("GBO best %v should beat default %v", res.Best.RuntimeSec, def.RuntimeSec)
	}
}

func TestExtraFeatureDimensionStable(t *testing.T) {
	m := model()
	a := m.ExtraFeatures(conf.Default())
	b := m.ExtraFeatures(conf.DefaultShuffle())
	if len(a) != 3 || len(b) != 3 {
		t.Fatal("guide features must be 3-dimensional")
	}
}

// The guide features are Q squashed into [0, 1.5), on the scale of the
// normalized knobs, whatever the configuration.
func TestFeaturesVector(t *testing.T) {
	m := model()
	for _, cfg := range tune.NewSpace(cluster.A(), workload.KMeans()).Grid() {
		for _, v := range m.ExtraFeatures(cfg) {
			if v < 0 || v >= 1.5 {
				t.Fatalf("%+v: squashed feature %v outside [0, 1.5)", cfg, v)
			}
		}
	}
}
