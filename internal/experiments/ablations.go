package experiments

import (
	"fmt"
	"strings"

	"relm/internal/bo"
	"relm/internal/conf"
	"relm/internal/core"
	"relm/internal/gbo"
	"relm/internal/profile"
	"relm/internal/sim"
	"relm/internal/sim/cluster"
	"relm/internal/sim/workload"
	"relm/internal/stats"
	"relm/internal/tune"
)

func init() {
	register("ablation-gbo", "GBO component ablation: guide features vs acquisition penalty", func(c Config) fmt.Stringer { return AblationGBO(c) })
	register("ablation-relm-delta", "RelM safety-factor δ sweep: safety vs performance", func(c Config) fmt.Stringer { return AblationRelMDelta(c) })
	register("ablation-reuse", "OtterTune-style BO model re-use across sessions (§6.6)", func(c Config) fmt.Stringer { return AblationReuse(c) })
}

// AblationGBOResult compares GBO variants with pieces disabled.
type AblationGBOResult struct{ Rows []AblationGBORow }

// AblationGBORow is one GBO variant's mean training cost on one app.
type AblationGBORow struct {
	App       string
	Variant   string // full, features-only, penalty-only, none (=BO)
	MeanIters float64
	MeanPct   float64 // % of exhaustive stress time to reach top-5%
}

func (r *AblationGBOResult) String() string {
	t := &table{header: []string{"app", "variant", "iterations", "% of exhaustive"}}
	for _, row := range r.Rows {
		t.add(row.App, row.Variant, f1(row.MeanIters), f1(row.MeanPct))
	}
	return "== Ablation: GBO components (which part of the guide pays?)\n" + t.String()
}

// gboVariant runs guided BO with the chosen components enabled.
func gboVariant(ev *tune.Evaluator, seed uint64, features, penalty bool) {
	var model *gbo.Model
	ensure := func() *gbo.Model {
		if model == nil {
			if h := ev.History(); len(h) > 0 && h[0].Profile != nil {
				model = gbo.NewModel(ev.Cluster, profile.Generate(h[0].Profile))
			}
		}
		return model
	}
	var extra bo.Extra
	if features {
		extra = func(_ []float64, cfg conf.Config) []float64 {
			if m := ensure(); m != nil {
				return m.ExtraFeatures(cfg)
			}
			return []float64{0, 0, 0}
		}
	}
	var pen bo.Penalty
	if penalty {
		pen = func(_ []float64, cfg conf.Config) float64 {
			if m := ensure(); m != nil {
				return m.AcquisitionPenalty(cfg)
			}
			return 1
		}
	}
	tune.Drive(bo.NewTuner(ev.Space, bo.Options{Seed: seed, UsePaperLHS: true}, extra, pen), ev)
}

// AblationGBO isolates GBO's two mechanisms — the Q-derived surrogate
// features (Eq 8→9) and the Q-derived acquisition penalty — against vanilla
// BO, measuring time-to-top-5% like Figure 16.
func AblationGBO(c Config) *AblationGBOResult {
	cl := cluster.A()
	res := &AblationGBOResult{}
	reps := c.reps(4)
	variants := []struct {
		name              string
		features, penalty bool
	}{
		{"none (BO)", false, false},
		{"features-only", true, false},
		{"penalty-only", false, true},
		{"full GBO", true, true},
	}
	for _, wl := range []workload.Spec{workload.KMeans(), workload.PageRank()} {
		base := baselineFor(cl, wl, c.seed()+801)
		for _, v := range variants {
			var iters, pct float64
			for rep := 0; rep < reps; rep++ {
				seed := c.seed() + uint64(rep*101+len(v.name))
				ev := tune.NewEvaluator(cl, wl, seed)
				gboVariant(ev, seed, v.features, v.penalty)
				it, stress := timeToTop5(ev, base.Top5Sec)
				iters += float64(it)
				pct += 100 * stress / base.TotalSec
			}
			res.Rows = append(res.Rows, AblationGBORow{wl.Name, v.name, iters / float64(reps), pct / float64(reps)})
		}
	}
	return res
}

// AblationRelMDeltaResult sweeps the safety factor.
type AblationRelMDeltaResult struct{ Rows []AblationRelMDeltaRow }

// AblationRelMDeltaRow is RelM's outcome at one safety factor.
type AblationRelMDeltaRow struct {
	Delta      float64
	RuntimeMin float64 // mean over apps, scaled to default = 1
	Aborts     int
	Failures   int
}

func (r *AblationRelMDeltaResult) String() string {
	t := &table{header: []string{"delta", "scaled runtime (mean)", "aborts", "failures"}}
	for _, row := range r.Rows {
		t.add(f2(row.Delta), f2(row.RuntimeMin), fmt.Sprint(row.Aborts), fmt.Sprint(row.Failures))
	}
	return "== Ablation: RelM safety factor δ (paper uses 0.1)\n" + t.String()
}

// AblationRelMDelta sweeps δ from 0 to 0.3: small values chase utilization
// at the cost of reliability; large values waste memory. The paper's 0.1
// should sit near the knee.
func AblationRelMDelta(c Config) *AblationRelMDeltaResult {
	cl := cluster.A()
	res := &AblationRelMDeltaResult{}
	apps := []workload.Spec{workload.KMeans(), workload.SVM(), workload.PageRank()}
	for _, delta := range []float64{0, 0.05, 0.1, 0.2, 0.3} {
		var scaledSum float64
		aborts, failures, count := 0, 0, 0
		for ai, wl := range apps {
			ev := tune.NewEvaluator(cl, wl, c.seed()+uint64(ai)*37)
			tuner := core.New(cl)
			tuner.Opts.Delta = delta
			rec, _, err := tuner.TuneWorkload(ev)
			if err != nil {
				aborts++
				continue
			}
			def, _ := sim.Run(cl, wl, ev.Space.Default(), c.seed()+991)
			for s := uint64(0); s < 3; s++ {
				r, _ := sim.Run(cl, wl, rec, c.seed()+1000+s)
				scaledSum += r.RuntimeSec / def.RuntimeSec
				count++
				failures += r.ContainerFailures
				if r.Aborted {
					aborts++
				}
			}
		}
		row := AblationRelMDeltaRow{Delta: delta, Aborts: aborts, Failures: failures}
		if count > 0 {
			row.RuntimeMin = scaledSum / float64(count)
		}
		res.Rows = append(res.Rows, row)
	}
	return res
}

// AblationReuseResult reports the model re-use study.
type AblationReuseResult struct {
	Lines []string
}

func (r *AblationReuseResult) String() string {
	return "== Ablation: OtterTune-style BO model re-use (§6.6)\n" + strings.Join(r.Lines, "\n") + "\n"
}

// AblationReuse tunes SVM twice through a model repository: the second
// session matches the first's fingerprint and warm-starts, cutting the
// experiments needed to reach the same quality. A different workload must
// not match.
func AblationReuse(c Config) *AblationReuseResult {
	cl := cluster.A()
	wl := workload.SVM()
	repo := &bo.Repository{}
	res := &AblationReuseResult{}

	reps := c.reps(3)
	var coldIters, warmIters, coldBest, warmBest []float64
	for rep := 0; rep < reps; rep++ {
		// Cold session.
		ev1 := tune.NewEvaluator(cl, wl, c.seed()+uint64(rep)*71)
		best1, reused1 := bo.RunWithReuse(ev1, bo.Options{Seed: c.seed() + uint64(rep)*71}, &bo.Repository{}, 0.25)
		coldIters = append(coldIters, float64(ev1.Evals()))
		coldBest = append(coldBest, best1.RuntimeSec/60)
		if reused1 {
			res.Lines = append(res.Lines, "unexpected re-use in cold session")
		}

		// Warm session against a repository seeded by a prior session.
		seedEv := tune.NewEvaluator(cl, wl, c.seed()+5000+uint64(rep))
		bo.RunWithReuse(seedEv, bo.Options{Seed: c.seed() + 5000 + uint64(rep)}, repo, 0.25)
		ev2 := tune.NewEvaluator(cl, wl, c.seed()+9000+uint64(rep))
		best2, reused2 := bo.RunWithReuse(ev2, bo.Options{Seed: c.seed() + 9000 + uint64(rep)}, repo, 0.25)
		warmIters = append(warmIters, float64(ev2.Evals()))
		warmBest = append(warmBest, best2.RuntimeSec/60)
		if !reused2 {
			res.Lines = append(res.Lines, "warm session failed to match")
		}
	}
	res.Lines = append(res.Lines,
		fmt.Sprintf("cold start: mean %.1f experiments, best %.1f min", stats.Mean(coldIters), stats.Mean(coldBest)),
		fmt.Sprintf("warm start: mean %.1f experiments, best %.1f min", stats.Mean(warmIters), stats.Mean(warmBest)))

	// A dissimilar workload must not match the SVM fingerprint.
	wc := workload.WordCount()
	evWC := tune.NewEvaluator(cl, wc, c.seed()+777)
	_, reusedWC := bo.RunWithReuse(evWC, bo.Options{Seed: c.seed() + 777, MaxIterations: 2, MinNewSamples: 1}, repo, 0.25)
	res.Lines = append(res.Lines, fmt.Sprintf("WordCount matched SVM models: %v (must be false)", reusedWC))
	return res
}
