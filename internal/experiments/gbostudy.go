package experiments

import (
	"fmt"
	"math"
	"strings"
	"time"

	"relm/internal/bo"
	"relm/internal/conf"
	"relm/internal/core"
	"relm/internal/ddpg"
	"relm/internal/gbo"
	"relm/internal/gp"
	"relm/internal/profile"
	"relm/internal/rf"
	"relm/internal/sim"
	"relm/internal/sim/cluster"
	"relm/internal/sim/workload"
	"relm/internal/stats"
	"relm/internal/tune"
)

func init() {
	register("figure25", "surrogate accuracy (R²) on a validation set: BO vs GBO", func(c Config) fmt.Stringer { return Figure25(c) })
	register("figure26", "GP vs Random Forest surrogates under BO and GBO", func(c Config) fmt.Stringer { return Figure26(c) })
	register("figure27", "DDPG generality: cross-cluster and cross-dataset reuse", func(c Config) fmt.Stringer { return Figure27(c) })
	register("figure21", "TPC-H: MaxResourceAllocation vs RelM on Cluster B", func(c Config) fmt.Stringer { return Figure21(c) })
	register("table10", "per-iteration algorithm overheads and model sizes", func(c Config) fmt.Stringer { return Table10(c) })
}

// Figure25Result tracks surrogate R² against sample count.
type Figure25Result struct {
	Samples []int
	R2BO    []float64
	R2GBO   []float64
	// PearsonBO/GBO report the strongest feature correlation with runtime
	// in each model's feature set (§6.5's analysis).
	PearsonBO  float64
	PearsonGBO float64
}

func (r *Figure25Result) String() string {
	var b strings.Builder
	b.WriteString("== Figure 25: surrogate R² on a validation set (K-means)\n")
	t := &table{header: []string{"samples", "R2 BO", "R2 GBO"}}
	for i, n := range r.Samples {
		t.add(fmt.Sprint(n), f2(r.R2BO[i]), f2(r.R2GBO[i]))
	}
	b.WriteString(t.String())
	fmt.Fprintf(&b, "strongest |Pearson| with runtime — BO features: %.2f, GBO guide metrics: %.2f\n",
		r.PearsonBO, r.PearsonGBO)
	return b.String()
}

// Figure25 trains the BO and GBO surrogates on growing sample sets and
// measures the coefficient of determination on a held-out validation set
// (~10% of the exhaustive grid), reproducing the accuracy-vs-samples study.
func Figure25(c Config) *Figure25Result {
	cl := cluster.A()
	wl := workload.KMeans()
	sp := tune.NewSpace(cl, wl)

	// Validation set: every 10th grid configuration, evaluated once.
	grid := sp.Grid()
	var valCfg []conf.Config
	var valY []float64
	for i := 0; i < len(grid); i += 10 {
		r, _ := sim.Run(cl, wl, grid[i], c.seed()+uint64(i))
		if r.Aborted {
			continue
		}
		valCfg = append(valCfg, grid[i])
		valY = append(valY, r.RuntimeSec)
	}

	// Training stream: LHS bootstrap then random probes, shared by both
	// models so the comparison isolates the feature sets.
	ev := tune.NewEvaluator(cl, wl, c.seed()+5001)
	var train []tune.Sample
	for _, cfg := range tune.PaperLHS(sp) {
		train = append(train, ev.Eval(cfg))
	}
	rng := simrandFor(c.seed() + 77)
	maxN := 20
	if c.Quick {
		maxN = 8
	}
	for len(train) < maxN {
		x := make([]float64, sp.Dim())
		for d := range x {
			x[d] = rng.Float64()
		}
		train = append(train, ev.Eval(sp.Decode(x)))
	}

	qm := gbo.NewModel(cl, profile.Generate(train[0].Profile))
	gboFeat := func(s tune.Sample) []float64 {
		return append(append([]float64(nil), s.X...), qm.ExtraFeatures(s.Config)...)
	}
	gboFeatCfg := func(cfg conf.Config) []float64 {
		return append(append([]float64(nil), sp.Encode(cfg)...), qm.ExtraFeatures(cfg)...)
	}

	// The accuracy study models the completed-run response surface in
	// log-runtime space (abort penalties are an objective-shaping device,
	// not part of the surface).
	logValY := make([]float64, len(valY))
	for i, v := range valY {
		logValY[i] = math.Log(v)
	}
	res := &Figure25Result{}
	for n := 4; n <= len(train); n += 2 {
		var xsBO, xsGBO [][]float64
		var ys []float64
		for _, s := range train[:n] {
			if s.Result.Aborted {
				continue
			}
			xsBO = append(xsBO, s.X)
			xsGBO = append(xsGBO, gboFeat(s))
			ys = append(ys, math.Log(s.RuntimeSec))
		}
		if len(ys) < 3 {
			continue
		}
		r2 := func(xs [][]float64, encode func(conf.Config) []float64, baseDims int) float64 {
			model, err := gp.FitBestGrouped(xs, ys, baseDims)
			if err != nil {
				return 0
			}
			var pred []float64
			for _, cfg := range valCfg {
				m, _ := model.Predict(encode(cfg))
				pred = append(pred, m)
			}
			return stats.RSquared(logValY, pred)
		}
		res.Samples = append(res.Samples, n)
		res.R2BO = append(res.R2BO, r2(xsBO, func(cfg conf.Config) []float64 { return sp.Encode(cfg) }, sp.Dim()))
		res.R2GBO = append(res.R2GBO, r2(xsGBO, gboFeatCfg, sp.Dim()))
	}

	// Feature correlations on the full training set.
	var ys []float64
	for _, s := range train {
		ys = append(ys, s.Objective)
	}
	maxAbs := func(featAt func(tune.Sample) []float64, dims int) float64 {
		best := 0.0
		for d := 0; d < dims; d++ {
			var col []float64
			for _, s := range train {
				col = append(col, featAt(s)[d])
			}
			if r := stats.Pearson(col, ys); r*r > best*best {
				best = r
			}
		}
		if best < 0 {
			best = -best
		}
		return best
	}
	res.PearsonBO = maxAbs(func(s tune.Sample) []float64 { return s.X }, sp.Dim())
	res.PearsonGBO = maxAbs(func(s tune.Sample) []float64 { return qm.ExtraFeatures(s.Config) }, 3)
	return res
}

// Figure26Result compares surrogate choices.
type Figure26Result struct{ Rows []Figure26Row }

// Figure26Row is one surrogate variant's mean training cost on one app.
type Figure26Row struct {
	App        string
	Variant    string // BO-GP, GBO-GP, BO-RF, GBO-RF
	Iterations int
	TrainMin   float64
}

func (r *Figure26Result) String() string {
	t := &table{header: []string{"app", "variant", "iterations", "training time (min)"}}
	for _, row := range r.Rows {
		t.add(row.App, row.Variant, fmt.Sprint(row.Iterations), f0(row.TrainMin))
	}
	return "== Figure 26: Gaussian Process vs Random Forest surrogates\n" + t.String()
}

// Figure26 swaps the Gaussian Process for a Random Forest under both BO and
// GBO on K-means and SVM.
func Figure26(c Config) *Figure26Result {
	cl := cluster.A()
	res := &Figure26Result{}
	reps := c.reps(3)
	for _, wl := range []workload.Spec{workload.KMeans(), workload.SVM()} {
		base := baselineFor(cl, wl, c.seed()+601)
		for _, variant := range []string{"BO-GP", "GBO-GP", "BO-RF", "GBO-RF"} {
			var iterSum, minSum float64
			for rep := 0; rep < reps; rep++ {
				seed := c.seed() + uint64(rep*31+len(variant))
				opts := bo.Options{Seed: seed, UsePaperLHS: rep == 0}
				if strings.HasSuffix(variant, "-RF") {
					opts.Surrogate = &rf.Surrogate{Opts: rf.Options{Seed: seed}}
				}
				ev := tune.NewEvaluator(cl, wl, seed)
				var tuner tune.Tuner = bo.NewTuner(ev.Space, opts, nil, nil)
				if strings.HasPrefix(variant, "GBO") {
					tuner = gbo.NewTuner(cl, ev.Space, opts)
				}
				tune.Drive(tuner, ev)
				iters, stress := timeToTop5(ev, base.Top5Sec)
				iterSum += float64(iters)
				minSum += stress / 60
			}
			res.Rows = append(res.Rows, Figure26Row{wl.Name, variant, int(iterSum/float64(reps) + 0.5), minSum / float64(reps)})
		}
	}
	return res
}

// Figure27Result reports DDPG model re-use.
type Figure27Result struct{ Rows []Figure27Row }

// Figure27Row is one training scenario's best runtime and sample count.
type Figure27Row struct {
	Scenario   string
	RuntimeMin float64
	Samples    int
}

func (r *Figure27Result) String() string {
	t := &table{header: []string{"scenario", "best runtime (min)", "samples used"}}
	for _, row := range r.Rows {
		t.add(row.Scenario, f1(row.RuntimeMin), fmt.Sprint(row.Samples))
	}
	return "== Figure 27: DDPG generality (SVM; cross-cluster and cross-dataset)\n" + t.String()
}

// scaledSVM returns the SVM workload with its dataset scaled by factor (the
// s1→s2 dataset change of §6.6).
func scaledSVM(factor float64) workload.Spec {
	return workload.Scale(workload.SVM(), factor)
}

// Figure27 trains DDPG for SVM on Cluster A, then re-uses the agent on
// Cluster B with only 5 test samples (DDPG^B_A), comparing against an agent
// trained from scratch on B (DDPG^B_B); and repeats the exercise across a
// dataset-scale change on B.
func Figure27(c Config) *Figure27Result {
	res := &Figure27Result{}
	add := func(name string, best tune.Sample, samples int) {
		res.Rows = append(res.Rows, Figure27Row{name, best.RuntimeSec / 60, samples})
	}

	// Train on Cluster A.
	evA := tune.NewEvaluator(cluster.A(), workload.SVM(), c.seed())
	trained := ddpg.NewTuner(evA.Cluster, evA.Space, nil, ddpg.TuneOptions{Seed: c.seed()})
	tune.Drive(trained, evA)

	// Cross-test on Cluster B with 5 samples, reusing the agent (noise off
	// would be pure exploitation; the paper allows light exploration).
	evB := tune.NewEvaluator(cluster.B(), workload.SVM(), c.seed()+11)
	cross, _ := tune.Drive(ddpg.NewTuner(evB.Cluster, evB.Space, trained.Agent(), ddpg.TuneOptions{MaxSteps: 5, Seed: c.seed() + 11}), evB)
	add("DDPG^B_A (A-trained, 5 samples on B)", cross, evB.Evals())

	// From scratch on B.
	evB2 := tune.NewEvaluator(cluster.B(), workload.SVM(), c.seed()+12)
	scratch, _ := tune.Drive(ddpg.NewTuner(evB2.Cluster, evB2.Space, nil, ddpg.TuneOptions{Seed: c.seed() + 12}), evB2)
	add("DDPG^B_B (trained on B)", scratch, evB2.Evals())

	// Dataset scale change s1 → s2 on B.
	evS1 := tune.NewEvaluator(cluster.B(), scaledSVM(1), c.seed()+13)
	s1 := ddpg.NewTuner(evS1.Cluster, evS1.Space, nil, ddpg.TuneOptions{Seed: c.seed() + 13})
	tune.Drive(s1, evS1)
	evS2 := tune.NewEvaluator(cluster.B(), scaledSVM(2), c.seed()+14)
	s2cross, _ := tune.Drive(ddpg.NewTuner(evS2.Cluster, evS2.Space, s1.Agent(), ddpg.TuneOptions{MaxSteps: 5, Seed: c.seed() + 14}), evS2)
	add("DDPG^s2_s1 (s1-trained, 5 samples on s2)", s2cross, evS2.Evals())
	evS2b := tune.NewEvaluator(cluster.B(), scaledSVM(2), c.seed()+15)
	s2, _ := tune.Drive(ddpg.NewTuner(evS2b.Cluster, evS2b.Space, nil, ddpg.TuneOptions{Seed: c.seed() + 15}), evS2b)
	add("DDPG^s2_s2 (trained on s2)", s2, evS2b.Evals())
	return res
}

// Figure21Result is the TPC-H study.
type Figure21Result struct {
	Rows         []Figure21Row
	TotalDefault float64
	TotalRelM    float64
}

// Figure21Row is one TPC-H query's runtime under each configuration.
type Figure21Row struct {
	Query      string
	DefaultMin float64
	RelMMin    float64
}

func (r *Figure21Result) String() string {
	t := &table{header: []string{"query", "MaxResourceAllocation (min)", "RelM (min)"}}
	for _, row := range r.Rows {
		t.add(row.Query, f1(row.DefaultMin), f1(row.RelMMin))
	}
	return fmt.Sprintf("== Figure 21: TPC-H on Cluster B\n%stotal: default %.0f min → RelM %.0f min (%.0f%% saving)\n",
		t, r.TotalDefault, r.TotalRelM, 100*(1-r.TotalRelM/r.TotalDefault))
}

// Figure21 runs the 22 TPC-H queries on Cluster B under the default policy,
// tunes the workload with RelM using the profile of the longest-running
// query's run, and re-runs all queries under the recommendation.
func Figure21(c Config) *Figure21Result {
	cl := cluster.B()
	res := &Figure21Result{}
	tuner := core.New(cl)

	queries := workload.TPCH()
	if c.Quick {
		queries = queries[:6]
	}

	// Profile pass at the defaults; keep the heaviest query's profile.
	var heaviest *profile.Profile
	var heaviestSec float64
	defaults := make([]float64, len(queries))
	for i, q := range queries {
		r, prof := sim.Run(cl, q, conf.DefaultShuffle(), c.seed()+uint64(i))
		defaults[i] = r.RuntimeSec
		if r.RuntimeSec > heaviestSec {
			heaviestSec, heaviest = r.RuntimeSec, prof
		}
	}
	rec := conf.DefaultShuffle()
	if heaviest != nil {
		if cfg, _, err := tuner.Recommend(profile.Generate(heaviest)); err == nil {
			rec = cfg
		}
	}
	for i, q := range queries {
		r, _ := sim.Run(cl, q, rec, c.seed()+uint64(1000+i))
		res.Rows = append(res.Rows, Figure21Row{fmt.Sprintf("Q%d", i+1), defaults[i] / 60, r.RuntimeSec / 60})
		res.TotalDefault += defaults[i] / 60
		res.TotalRelM += r.RuntimeSec / 60
	}
	return res
}

// Table10Result reports measured per-iteration overheads.
type Table10Result struct{ Rows []Table10Row }

// Table10Row is one component's cost per policy, formatted.
type Table10Row struct {
	Component string
	DDPG      string
	BO        string
	GBO       string
	RelM      string
}

func (r *Table10Result) String() string {
	t := &table{header: []string{"component", "DDPG", "BO", "GBO", "RelM"}}
	for _, row := range r.Rows {
		t.add(row.Component, row.DDPG, row.BO, row.GBO, row.RelM)
	}
	return "== Table 10: tuning-algorithm overheads (measured on this host)\n" + t.String()
}

// Table10 measures the wall-clock cost of one iteration of each algorithm's
// components — statistics collection, model fitting, model probing — and
// the persisted model sizes, mirroring the paper's methodology on our host.
func Table10(c Config) *Table10Result {
	cl := cluster.A()
	wl := workload.KMeans()
	sp := tune.NewSpace(cl, wl)
	_, prof := sim.Run(cl, wl, conf.Default(), c.seed())

	// Statistics collection.
	statsDur := timeIt(func() { _ = profile.Generate(prof) })

	// Observation set for the model-based policies.
	ev := tune.NewEvaluator(cl, wl, c.seed()+31)
	var xs [][]float64
	var ys []float64
	for _, cfg := range tune.PaperLHS(sp) {
		s := ev.Eval(cfg)
		xs = append(xs, s.X)
		ys = append(ys, s.Objective)
	}
	for i := 0; i < 8; i++ {
		x := make([]float64, sp.Dim())
		rng := simrandFor(c.seed() + uint64(i))
		for d := range x {
			x[d] = rng.Float64()
		}
		s := ev.Eval(sp.Decode(x))
		xs = append(xs, s.X)
		ys = append(ys, s.Objective)
	}
	st := profile.Generate(prof)
	qm := gbo.NewModel(cl, st)
	gboXs := make([][]float64, len(xs))
	for i := range xs {
		gboXs[i] = append(append([]float64(nil), xs[i]...), qm.ExtraFeatures(ev.History()[i].Config)...)
	}

	// Model fitting.
	var boModel, gboModel *gp.GP
	boFit := timeIt(func() { boModel, _ = gp.FitBestGrouped(xs, ys, sp.Dim()) })
	gboFit := timeIt(func() { gboModel, _ = gp.FitBestGrouped(gboXs, ys, sp.Dim()) })
	agent := ddpg.NewAgent(ddpg.Options{StateDim: ddpg.StateDim, ActionDim: 4, Seed: c.seed()})
	for i := 0; i < 32; i++ {
		agent.Observe(ddpg.Transition{
			State:     make([]float64, ddpg.StateDim),
			Action:    make([]float64, 4),
			NextState: make([]float64, ddpg.StateDim),
			Reward:    float64(i % 3),
		})
	}
	ddpgFit := timeIt(func() { agent.Train() })
	tuner := core.New(cl)
	relmFit := timeIt(func() { _ = tuner.Initialize(st, 1) })

	// Model probing: a model fitted on extra guide features takes probes of
	// the knobs zero-padded to its width (overhead measurement only).
	probe := func(model *gp.GP, extra int) func() {
		return func() {
			rng := simrandFor(c.seed() + 97)
			for i := 0; i < 256; i++ {
				x := make([]float64, sp.Dim())
				for d := range x {
					x[d] = rng.Float64()
				}
				model.Predict(append(x, make([]float64, extra)...))
			}
		}
	}
	boProbe := timeIt(probe(boModel, 0))
	gboProbe := timeIt(probe(gboModel, 3))
	ddpgProbe := timeIt(func() { agent.Act(make([]float64, ddpg.StateDim), false) })
	relmProbe := timeIt(func() { _, _, _ = tuner.Recommend(st) })

	// Model sizes: BO stores the training data; DDPG the network weights.
	boSize := 8 * len(xs) * (len(xs[0]) + 1)
	gboSize := 8 * len(gboXs) * (len(gboXs[0]) + 1)
	ddpgSize := agent.ModelSizeBytes()

	return &Table10Result{Rows: []Table10Row{
		{"Statistics Collection", ms(statsDur), "-", ms(statsDur), ms(statsDur)},
		{"Model Fitting", ms(ddpgFit), ms(boFit), ms(gboFit), ms(relmFit)},
		{"Model Probing", ms(ddpgProbe), ms(boProbe), ms(gboProbe), ms(relmProbe)},
		{"Model Size", fmt.Sprintf("%.1fKb", float64(ddpgSize)/1024), fmt.Sprintf("%.1fKb", float64(boSize)/1024), fmt.Sprintf("%.1fKb", float64(gboSize)/1024), "-"},
	}}
}

func ms(d time.Duration) string {
	if d < time.Millisecond {
		return fmt.Sprintf("%.2fms", float64(d.Microseconds())/1000)
	}
	return fmt.Sprintf("%dms", d.Milliseconds())
}

func timeIt(f func()) time.Duration {
	start := time.Now()
	f()
	return time.Since(start)
}
