package experiments

import (
	"math"

	"relm/internal/bo"
	"relm/internal/conf"
	"relm/internal/core"
	"relm/internal/ddpg"
	"relm/internal/gbo"
	"relm/internal/sim"
	"relm/internal/sim/cluster"
	"relm/internal/sim/workload"
	"relm/internal/stats"
	"relm/internal/tune"
)

// PolicyRun is the outcome of training one tuning policy on one workload.
type PolicyRun struct {
	Policy string
	App    string
	// Recommended configuration and its fresh-run verification.
	Config     conf.Config
	RuntimeMin float64
	Aborted    bool
	FailedCont int
	// Training cost.
	Iterations int // experiments taken (including bootstrap/profiling)
	// IterToTop5 and StressToTop5 are the experiments and stress-testing
	// seconds charged until a run within the top 5 percentile of exhaustive
	// search was observed: the whole training when the bar is never reached.
	IterToTop5   int
	StressToTop5 float64
	// Curve is the best-so-far objective after each experiment (seconds).
	Curve []float64
}

// Baseline holds the exhaustive-search reference for one workload.
type Baseline struct {
	App        string
	BestMin    float64 // best non-aborted runtime, minutes
	Top5Sec    float64 // top-5-percentile runtime threshold, seconds
	TotalSec   float64 // total stress-testing time of the grid
	DefaultMin float64 // MaxResourceAllocation runtime, minutes
	DefaultCfg conf.Config
	BestCfg    conf.Config
	Samples    []tune.Sample
}

// baselineFor runs the exhaustive grid once per workload (plus the default
// configuration) and caches nothing — callers reuse the returned struct.
func baselineFor(cl cluster.Spec, wl workload.Spec, seed uint64) Baseline {
	ev := tune.NewEvaluator(cl, wl, seed)
	best, samples := tune.Exhaustive(ev)
	b := Baseline{
		App:      wl.Name,
		BestMin:  best.RuntimeSec / 60,
		Top5Sec:  tune.TopPercentile(samples, 5),
		TotalSec: ev.TotalRuntime(),
		BestCfg:  best.Config,
		Samples:  samples,
	}
	b.DefaultCfg = ev.Space.Default()
	// The default can itself be unreliable (PageRank aborts under it); the
	// median over completed runs gives a stable scaling reference. Aborted
	// runs end early and would deflate the baseline, so they only count
	// when nothing completes (then the longest attempt stands in, the way
	// the paper quotes its aborted 66-minute PageRank default).
	var completed, all []float64
	for i := uint64(0); i < 5; i++ {
		dres, _ := sim.Run(cl, wl, b.DefaultCfg, seed+33331+i*977)
		all = append(all, dres.RuntimeSec)
		if !dres.Aborted {
			completed = append(completed, dres.RuntimeSec)
		}
	}
	if len(completed) > 0 {
		b.DefaultMin = stats.Median(completed) / 60
	} else {
		b.DefaultMin = stats.Max(all) / 60
	}
	return b
}

// timeToTop5 is the training cost charged against the exhaustive top-5% bar
// top5 (seconds): the experiments and stress-testing seconds up to and
// including the first completed run at or under the bar, or the whole
// history (Evals, TotalRuntime) when no completed run reaches it.
func timeToTop5(ev *tune.Evaluator, top5 float64) (int, float64) {
	var acc float64
	for i, s := range ev.History() {
		acc += s.RuntimeSec
		if top5 > 0 && !s.Result.Aborted && s.RuntimeSec <= top5 {
			return i + 1, acc
		}
	}
	return ev.Evals(), ev.TotalRuntime()
}

// trainPolicy runs one policy on a fresh evaluator and fills a PolicyRun.
// top5 (seconds) marks the quality bar for the time-to-quality metrics.
func trainPolicy(policy string, cl cluster.Spec, wl workload.Spec, seed uint64, top5 float64) PolicyRun {
	ev := tune.NewEvaluator(cl, wl, seed)
	run := PolicyRun{Policy: policy, App: wl.Name}

	switch policy {
	case "RelM":
		tuner := core.New(cl)
		cfg, _, err := tuner.TuneWorkload(ev)
		if err != nil {
			cfg = ev.Space.Default()
		}
		run.Config = cfg
	case "BO":
		best, _ := tune.Drive(bo.NewTuner(ev.Space, bo.Options{Seed: seed, UsePaperLHS: true}, nil, nil), ev)
		run.Config = best.Config
	case "GBO":
		best, _ := tune.Drive(gbo.NewTuner(cl, ev.Space, bo.Options{Seed: seed, UsePaperLHS: true}), ev)
		run.Config = best.Config
	case "DDPG":
		best, _ := tune.Drive(ddpg.NewTuner(cl, ev.Space, nil, ddpg.TuneOptions{Seed: seed}), ev)
		run.Config = best.Config
	case "RRS":
		rng := simrandFor(seed)
		best, _ := tune.RecursiveRandomSearch(ev, rng, 12)
		run.Config = best.Config
	case "Default":
		run.Config = ev.Space.Default()
	default:
		panic("unknown policy " + policy)
	}

	run.Iterations = ev.Evals()
	run.IterToTop5, run.StressToTop5 = timeToTop5(ev, top5)

	// The best-so-far curve (+Inf until a run completes).
	bestSoFar := math.Inf(1)
	for _, s := range ev.History() {
		if !s.Result.Aborted {
			bestSoFar = min(bestSoFar, s.Objective)
		}
		run.Curve = append(run.Curve, bestSoFar)
	}

	// Verify the recommendation with fresh runs; report the median so a
	// single unlucky failure does not misrepresent the configuration.
	var runs []sim.Result
	for i := uint64(0); i < 3; i++ {
		res, _ := sim.Run(cl, wl, run.Config, seed+77777+i*131)
		runs = append(runs, res)
	}
	for i := 1; i < len(runs); i++ {
		for j := i; j > 0 && runs[j].RuntimeSec < runs[j-1].RuntimeSec; j-- {
			runs[j], runs[j-1] = runs[j-1], runs[j]
		}
	}
	med := runs[1]
	run.RuntimeMin = med.RuntimeSec / 60
	run.Aborted = med.Aborted
	run.FailedCont = med.ContainerFailures
	return run
}
