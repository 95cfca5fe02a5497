package relm_test

import (
	"fmt"

	"relm"
)

// ExampleSimulate runs one application on the simulated cluster and prints
// the headline metrics.
func ExampleSimulate() {
	cl := relm.ClusterA()
	wl, _ := relm.WorkloadByName("SVM")
	res, _ := relm.Simulate(cl, wl, relm.DefaultConfig(), 1)
	fmt.Printf("aborted=%v hit=%.2f\n", res.Aborted, res.CacheHitRatio)
	// Output: aborted=false hit=1.00
}

// ExampleGenerateStats derives the Table 6 statistics from a profile.
func ExampleGenerateStats() {
	cl := relm.ClusterA()
	wl, _ := relm.WorkloadByName("PageRank")
	_, prof := relm.Simulate(cl, wl, relm.DefaultConfig(), 1)
	st := relm.GenerateStats(prof)
	fmt.Printf("N=%d P=%d heap=%.0fMB\n", st.N, st.P, st.MhMB)
	// Output: N=1 P=2 heap=4404MB
}

// ExampleNewRelM tunes a workload from a single profile.
func ExampleNewRelM() {
	cl := relm.ClusterA()
	wl, _ := relm.WorkloadByName("PageRank")
	ev := relm.NewEvaluator(cl, wl, 1)
	cfg, _, err := relm.NewRelM(cl).TuneWorkload(ev)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("profiling runs: %d, concurrency: %d\n", ev.Evals(), cfg.TaskConcurrency)
	// Output: profiling runs: 1, concurrency: 1
}

// ExampleDriveTuner runs Bayesian Optimization with the paper's Table 7
// bootstrap to its stopping rule.
func ExampleDriveTuner() {
	cl := relm.ClusterA()
	wl, _ := relm.WorkloadByName("WordCount")
	ev := relm.NewEvaluator(cl, wl, 1)
	_, found := relm.DriveTuner(relm.NewBOTuner(cl, wl, relm.BOOptions{Seed: 1, UsePaperLHS: true, MaxIterations: 3, MinNewSamples: 1}), ev)
	fmt.Printf("found=%v evals>=4: %v\n", found, ev.Evals() >= 4)
	// Output: found=true evals>=4: true
}

// ExampleExperimentIDs lists a few reproducible paper artifacts.
func ExampleExperimentIDs() {
	ids := relm.ExperimentIDs()
	fmt.Println(len(ids) >= 28, ids[0])
	// Output: true ablation-gbo
}
