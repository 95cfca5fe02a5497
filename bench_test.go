// Benchmarks that regenerate every table and figure of the paper's
// empirical study (§3) and evaluation (§6). Each benchmark executes the
// corresponding experiment harness end to end; run with
//
//	go test -bench=. -benchmem
//
// The -v output of cmd/experiments prints the actual rows/series; these
// benchmarks measure the cost of regenerating them and double as smoke tests
// that every experiment stays runnable.
package relm_test

import (
	"math"
	"testing"

	"relm"
	"relm/internal/service"
)

// benchExperiment runs one registered experiment per iteration.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	cfg := relm.ExperimentConfig{Seed: 1, Quick: true}
	for i := 0; i < b.N; i++ {
		res, err := relm.RunExperiment(id, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.String() == "" {
			b.Fatalf("%s rendered empty", id)
		}
	}
}

// --- §3 empirical study -------------------------------------------------

func BenchmarkTable4_Defaults(b *testing.B)              { benchExperiment(b, "table4") }
func BenchmarkFigure4_ContainersPerNode(b *testing.B)    { benchExperiment(b, "figure4") }
func BenchmarkFigure5_Failures(b *testing.B)             { benchExperiment(b, "figure5") }
func BenchmarkFigure6_TaskConcurrency(b *testing.B)      { benchExperiment(b, "figure6") }
func BenchmarkFigure7_CacheShuffleCapacity(b *testing.B) { benchExperiment(b, "figure7") }
func BenchmarkFigure8_NewRatioCache(b *testing.B)        { benchExperiment(b, "figure8") }
func BenchmarkFigure9_NewRatioGC(b *testing.B)           { benchExperiment(b, "figure9") }
func BenchmarkFigure10_NewRatioShuffle(b *testing.B)     { benchExperiment(b, "figure10") }
func BenchmarkFigure11_RSSTimeline(b *testing.B)         { benchExperiment(b, "figure11") }
func BenchmarkTable5_ManualPageRank(b *testing.B)        { benchExperiment(b, "table5") }

// --- §4 RelM ---------------------------------------------------------------

func BenchmarkTable6_Statistics(b *testing.B)        { benchExperiment(b, "table6") }
func BenchmarkFigure13_ArbitratorTrace(b *testing.B) { benchExperiment(b, "figure13") }

// --- §6 evaluation ----------------------------------------------------------

func BenchmarkTable7_LHSSamples(b *testing.B)              { benchExperiment(b, "table7") }
func BenchmarkFigure16_TrainingOverheads(b *testing.B)     { benchExperiment(b, "figure16") }
func BenchmarkFigure17_RecommendationQuality(b *testing.B) { benchExperiment(b, "figure17") }
func BenchmarkTable8_Recommendations(b *testing.B)         { benchExperiment(b, "table8") }
func BenchmarkTable9_BORunLog(b *testing.B)                { benchExperiment(b, "table9") }
func BenchmarkTable10_AlgorithmOverheads(b *testing.B)     { benchExperiment(b, "table10") }
func BenchmarkFigure18_KMeansBoxes(b *testing.B)           { benchExperiment(b, "figure18") }
func BenchmarkFigure19_SVMBoxes(b *testing.B)              { benchExperiment(b, "figure19") }
func BenchmarkFigure20_Convergence(b *testing.B)           { benchExperiment(b, "figure20") }
func BenchmarkFigure21_TPCH(b *testing.B)                  { benchExperiment(b, "figure21") }
func BenchmarkFigure22_ProfileSensitivity(b *testing.B)    { benchExperiment(b, "figure22") }
func BenchmarkFigure23_EstimateVariance(b *testing.B)      { benchExperiment(b, "figure23") }
func BenchmarkFigure24_UtilityRanking(b *testing.B)        { benchExperiment(b, "figure24") }
func BenchmarkFigure25_SurrogateAccuracy(b *testing.B)     { benchExperiment(b, "figure25") }
func BenchmarkFigure26_SurrogateChoice(b *testing.B)       { benchExperiment(b, "figure26") }
func BenchmarkFigure27_DDPGGenerality(b *testing.B)        { benchExperiment(b, "figure27") }

// --- ablations (DESIGN.md §3: design-choice studies) -------------------------

func BenchmarkAblationGBOComponents(b *testing.B) { benchExperiment(b, "ablation-gbo") }
func BenchmarkAblationRelMDelta(b *testing.B)     { benchExperiment(b, "ablation-relm-delta") }
func BenchmarkAblationModelReuse(b *testing.B)    { benchExperiment(b, "ablation-reuse") }

// --- component micro-benchmarks ---------------------------------------------

// BenchmarkSimRun measures one full simulated application run — the unit of
// stress-testing cost every tuning policy pays per experiment — for each
// Table 2 workload at its default configuration.
func BenchmarkSimRun(b *testing.B) {
	cl := relm.ClusterA()
	for _, wl := range relm.Workloads() {
		cfg := relm.NewSpace(cl, wl).Default()
		b.Run(wl.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, _ := relm.Simulate(cl, wl, cfg, uint64(i))
				if res.RuntimeSec <= 0 {
					b.Fatal("bad run")
				}
			}
		})
	}
}

// BenchmarkStatsGeneration measures the §4.1 statistics derivation — the
// "Statistics Collection" row of Table 10.
func BenchmarkStatsGeneration(b *testing.B) {
	cl := relm.ClusterA()
	wl, _ := relm.WorkloadByName("PageRank")
	_, prof := relm.Simulate(cl, wl, relm.DefaultConfig(), 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		relm.GenerateStats(prof)
	}
}

// BenchmarkRelMRecommend measures the full Enumerator+Initializer+Arbitrator
// pipeline — the "Model Fitting"+"Model Probing" rows for RelM in Table 10.
func BenchmarkRelMRecommend(b *testing.B) {
	cl := relm.ClusterA()
	wl, _ := relm.WorkloadByName("PageRank")
	_, prof := relm.Simulate(cl, wl, relm.DefaultConfig(), 1)
	st := relm.GenerateStats(prof)
	tuner := relm.NewRelM(cl)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := tuner.Recommend(st); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBOIteration measures one full Bayesian-optimization run on SVM
// (bootstrap + adaptive samples + surrogate fits + acquisition search).
func BenchmarkBOIteration(b *testing.B) {
	cl := relm.ClusterA()
	wl, _ := relm.WorkloadByName("SVM")
	for i := 0; i < b.N; i++ {
		ev := relm.NewEvaluator(cl, wl, uint64(i))
		if _, found := relm.DriveTuner(relm.NewBOTuner(cl, wl, relm.BOOptions{Seed: uint64(i), MaxIterations: 4, MinNewSamples: 2}), ev); !found {
			b.Fatal("BO found nothing")
		}
	}
}

// BenchmarkDDPGStep measures the RL loop (simulation + state featurization +
// minibatch updates) per tuning step.
func BenchmarkDDPGStep(b *testing.B) {
	cl := relm.ClusterA()
	wl, _ := relm.WorkloadByName("SVM")
	for i := 0; i < b.N; i++ {
		ev := relm.NewEvaluator(cl, wl, uint64(i))
		if _, found := relm.DriveTuner(relm.NewDDPGTuner(cl, wl, nil, relm.DDPGOptions{MaxSteps: 2, Seed: uint64(i)}), ev); !found {
			b.Fatal("DDPG found nothing")
		}
	}
}

// BenchmarkServiceSuggestObserve measures one suggest+observe round trip
// through the tuning service's session manager (lookup, locking, objective
// bookkeeping, surrogate update) — the per-request cost baseline for the
// HTTP API, excluding network and JSON. Sessions are recycled every 16
// observations so the surrogate-fit cost stays representative of a live
// session rather than growing cubically with history length.
func BenchmarkServiceSuggestObserve(b *testing.B) {
	m, err := service.Open(service.Options{Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer m.Close()

	var id string
	newSession := func() {
		st, err := m.Create(service.Spec{Backend: "bo", Workload: "SVM", Seed: 1, MaxIterations: 1 << 20})
		if err != nil {
			b.Fatal(err)
		}
		id = st.ID
	}
	newSession()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg, done, err := m.Suggest(id)
		if err != nil {
			b.Fatal(err)
		}
		if done {
			_ = m.CloseSession(id)
			newSession()
			continue
		}
		rt := 100 + 10*math.Sin(float64(i))
		if _, err := m.Observe(id, service.Observation{Config: cfg, RuntimeSec: rt}); err != nil {
			b.Fatal(err)
		}
		if (i+1)%16 == 0 {
			_ = m.CloseSession(id)
			newSession()
		}
	}
}

// BenchmarkExhaustiveGrid measures the full 144-point grid search the paper
// uses as its quality baseline.
func BenchmarkExhaustiveGrid(b *testing.B) {
	cl := relm.ClusterA()
	wl, _ := relm.WorkloadByName("WordCount")
	for i := 0; i < b.N; i++ {
		ev := relm.NewEvaluator(cl, wl, uint64(i))
		if best, _ := relm.ExhaustiveSearch(ev); best.RuntimeSec <= 0 {
			b.Fatal("no best")
		}
	}
}
