// Tuner comparison: runs all five tuning policies — exhaustive search, RelM,
// BO, GBO, and DDPG — on one workload and reports recommendation quality and
// training overheads side by side (the paper's Figures 16 and 17 for a
// single application).
//
//	go run ./examples/tunercompare [-workload SVM]
package main

import (
	"flag"
	"fmt"
	"log"

	"relm"
)

func main() {
	wlName := flag.String("workload", "SVM", "workload to tune")
	flag.Parse()

	cl := relm.ClusterA()
	wl, err := relm.WorkloadByName(*wlName)
	if err != nil {
		log.Fatal(err)
	}

	// Baseline: exhaustive grid search (the quality reference).
	exhEv := relm.NewEvaluator(cl, wl, 100)
	exhBest, grid := relm.ExhaustiveSearch(exhEv)
	fmt.Printf("exhaustive search: %d configs, %.0f min of stress testing\n",
		len(grid), exhEv.TotalRuntime()/60)
	fmt.Printf("  best: %v → %.1f min\n\n", exhBest.Config, exhBest.RuntimeSec/60)

	defRes, _ := relm.Simulate(cl, wl, relm.NewEvaluator(cl, wl, 1).Space.Default(), 55)
	fmt.Printf("%-6s %-45s %9s %7s %9s\n", "policy", "recommendation", "runtime", "evals", "overhead")
	report := func(policy string, cfg relm.Config, evals int, stressSec float64) {
		res, _ := relm.Simulate(cl, wl, cfg, 777)
		fmt.Printf("%-6s %-45v %7.1fm  %6d  %7.1fm  (%.0f%% of default)\n",
			policy, cfg, res.RuntimeMin(), evals, stressSec/60,
			100*res.RuntimeSec/defRes.RuntimeSec)
	}

	// RelM: one or two profiling runs, analytical recommendation.
	ev := relm.NewEvaluator(cl, wl, 200)
	rec, _, err := relm.NewRelM(cl).TuneWorkload(ev)
	if err != nil {
		log.Fatal(err)
	}
	report("RelM", rec, ev.Evals(), ev.TotalRuntime())

	// BO, GBO and DDPG: each steppable tuner driven to its stopping rule.
	for _, p := range []struct {
		policy string
		seed   uint64
		tuner  relm.Tuner
	}{
		{"BO", 300, relm.NewBOTuner(cl, wl, relm.BOOptions{Seed: 300, UsePaperLHS: true})},
		{"GBO", 400, relm.NewGBOTuner(cl, wl, relm.BOOptions{Seed: 400, UsePaperLHS: true})},
		{"DDPG", 500, relm.NewDDPGTuner(cl, wl, nil, relm.DDPGOptions{Seed: 500})},
	} {
		ev := relm.NewEvaluator(cl, wl, p.seed)
		best, _ := relm.DriveTuner(p.tuner, ev)
		report(p.policy, best.Config, ev.Evals(), ev.TotalRuntime())
	}
}
