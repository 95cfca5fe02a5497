package experiments

import (
	"fmt"
	"math"
	"strings"

	"relm/internal/bo"
	"relm/internal/sim/cluster"
	"relm/internal/sim/workload"
	"relm/internal/simrand"
	"relm/internal/stats"
	"relm/internal/tune"
)

func init() {
	register("table4", "default configuration (MaxResourceAllocation + framework defaults)", func(c Config) fmt.Stringer { return Table4(c) })
	register("table7", "Latin Hypercube bootstrap samples", func(c Config) fmt.Stringer { return Table7(c) })
	register("figure16", "training overheads of tuning policies vs exhaustive search", func(c Config) fmt.Stringer { return Figure16(c) })
	register("figure17", "quality of recommended configurations (scaled to defaults)", func(c Config) fmt.Stringer { return Figure17(c) })
	register("table8", "recommended configurations per app per policy", func(c Config) fmt.Stringer { return Table8(c) })
	register("table9", "log of one BO run on SVM", func(c Config) fmt.Stringer { return Table9(c) })
	register("figure18", "BO vs GBO training-time distribution for K-means", func(c Config) fmt.Stringer { return Figure18(c) })
	register("figure19", "BO vs GBO training-time distribution for SVM", func(c Config) fmt.Stringer { return Figure19(c) })
	register("figure20", "convergence of tuning policies on K-means", func(c Config) fmt.Stringer { return Figure20(c) })
}

func simrandFor(seed uint64) *simrand.Rand { return simrand.New(seed ^ 0xabcdef12345) }

// Table4Result prints the Table 4 defaults for Cluster A.
type Table4Result struct {
	HeapMB float64
	Config fmt.Stringer
}

func (r *Table4Result) String() string {
	return fmt.Sprintf("== Table 4: MaxResourceAllocation + framework defaults (Cluster A)\nHeap Size: %.0fMB\n%v\n", r.HeapMB, r.Config)
}

// Table4 reports the default configuration.
func Table4(Config) *Table4Result {
	cl := cluster.A()
	sp := tune.NewSpace(cl, workload.KMeans())
	return &Table4Result{HeapMB: cl.HeapPerContainer(1), Config: sp.Default()}
}

// Table7Result lists the LHS bootstrap configurations.
type Table7Result struct{ Rows []string }

func (r *Table7Result) String() string {
	return "== Table 7: LHS bootstrap samples\n" + strings.Join(r.Rows, "\n") + "\n"
}

// Table7 reproduces the bootstrap sample set.
func Table7(Config) *Table7Result {
	sp := tune.NewSpace(cluster.A(), workload.KMeans())
	res := &Table7Result{}
	for _, c := range tune.PaperLHS(sp) {
		res.Rows = append(res.Rows, c.String())
	}
	return res
}

// PolicyComparison aggregates the policy runs behind Figures 16/17 and
// Table 8. Building it once serves all three experiments.
type PolicyComparison struct {
	Baselines map[string]Baseline
	Runs      []PolicyRun // one per (app, policy, rep): reps only for quality stats
}

// comparePolicies trains every policy on every app.
func comparePolicies(c Config, policies []string) *PolicyComparison {
	cl := cluster.A()
	out := &PolicyComparison{Baselines: map[string]Baseline{}}
	for ai, wl := range workload.Benchmarks() {
		base := baselineFor(cl, wl, c.seed()+uint64(ai)*101)
		out.Baselines[wl.Name] = base
		for pi, p := range policies {
			run := trainPolicy(p, cl, wl, c.seed()+uint64(ai*10+pi)*7919, base.Top5Sec)
			out.Runs = append(out.Runs, run)
		}
	}
	return out
}

// Figure16Result reports training overheads as % of exhaustive search.
type Figure16Result struct{ Rows []Figure16Row }

// Figure16Row is one policy's mean training cost on one app.
type Figure16Row struct {
	App        string
	Policy     string
	Iterations int
	PctOfExh   float64
}

func (r *Figure16Result) String() string {
	t := &table{header: []string{"app", "policy", "iterations", "% of exhaustive"}}
	for _, row := range r.Rows {
		t.add(row.App, row.Policy, fmt.Sprint(row.Iterations), f1(row.PctOfExh))
	}
	return "== Figure 16: training overheads (time to reach top-5% of exhaustive)\n" + t.String()
}

// Figure16 trains DDPG, BO, GBO and RelM on each app until they reach the
// top-5-percentile bar, repeating the process several times as the paper
// does (5-10 reps, mean values plotted), and reports the mean stress-testing
// time as a percentage of the exhaustive search with mean iteration counts.
func Figure16(c Config) *Figure16Result {
	cl := cluster.A()
	res := &Figure16Result{}
	reps := c.reps(5)
	for ai, wl := range workload.Benchmarks() {
		base := baselineFor(cl, wl, c.seed()+uint64(ai)*101)
		for _, policy := range []string{"DDPG", "BO", "GBO", "RelM"} {
			var iterSum, stressSum float64
			for rep := 0; rep < reps; rep++ {
				run := trainPolicy(policy, cl, wl, c.seed()+uint64(ai*100+rep*17+len(policy))*7919, base.Top5Sec)
				iterSum += float64(run.IterToTop5)
				stressSum += run.StressToTop5
			}
			res.Rows = append(res.Rows, Figure16Row{wl.Name, policy, int(iterSum/float64(reps) + 0.5), 100 * stressSum / float64(reps) / base.TotalSec})
		}
	}
	return res
}

// Figure17Result reports recommendation quality scaled to the defaults.
type Figure17Result struct{ Rows []Figure17Row }

// Figure17Row is one recommendation's runtime, scaled to the app's default.
type Figure17Row struct {
	App        string
	Policy     string
	Scaled     float64
	RuntimeMin float64
	Failures   int
	Aborted    bool
}

func (r *Figure17Result) String() string {
	t := &table{header: []string{"app", "policy", "scaled", "runtime(min)", "failures", "aborted"}}
	for _, row := range r.Rows {
		t.add(row.App, row.Policy, f2(row.Scaled), f1(row.RuntimeMin), fmt.Sprint(row.Failures), fmt.Sprintf("%v", row.Aborted))
	}
	return "== Figure 17: runtime of recommended configurations scaled to MaxResourceAllocation\n" + t.String()
}

// Figure17 compares the recommendation quality of every policy, scaled to
// the MaxResourceAllocation default, with container-failure labels.
func Figure17(c Config) *Figure17Result {
	cmp := comparePolicies(c, []string{"DDPG", "BO", "GBO", "RelM"})
	res := &Figure17Result{}
	add := func(app, policy string, runtimeMin float64, failures int, aborted bool) {
		base := cmp.Baselines[app]
		res.Rows = append(res.Rows, Figure17Row{app, policy, runtimeMin / base.DefaultMin, runtimeMin, failures, aborted})
	}
	for _, wl := range workload.Benchmarks() {
		base := cmp.Baselines[wl.Name]
		add(wl.Name, "MaxResourceAllocation", base.DefaultMin, 0, false)
		add(wl.Name, "Exhaustive", base.BestMin, 0, false)
	}
	for _, run := range cmp.Runs {
		add(run.App, run.Policy, run.RuntimeMin, run.FailedCont, run.Aborted)
	}
	return res
}

// Table8Result lists the recommended configurations.
type Table8Result struct{ Rows []Table8Row }

// Table8Row is one policy's recommendation for one app.
type Table8Row struct {
	App    string
	Policy string
	Config string
}

func (r *Table8Result) String() string {
	t := &table{header: []string{"app", "policy", "configuration"}}
	for _, row := range r.Rows {
		t.add(row.App, row.Policy, row.Config)
	}
	return "== Table 8: recommendations by tuning policies\n" + t.String()
}

// Table8 collects the recommendations of every policy.
func Table8(c Config) *Table8Result {
	cmp := comparePolicies(c, []string{"DDPG", "BO", "GBO", "RelM"})
	res := &Table8Result{}
	for _, wl := range workload.Benchmarks() {
		base := cmp.Baselines[wl.Name]
		res.Rows = append(res.Rows, Table8Row{wl.Name, "Exhaustive", base.BestCfg.String()})
	}
	for _, run := range cmp.Runs {
		res.Rows = append(res.Rows, Table8Row{run.App, run.Policy, run.Config.String()})
	}
	return res
}

// Table9Result is the BO run log for SVM.
type Table9Result struct{ Rows []Table9Row }

// Table9Row is one experiment of the BO run.
type Table9Row struct {
	Sample     string
	Config     string
	RuntimeMin float64
}

func (r *Table9Result) String() string {
	t := &table{header: []string{"sample", "configuration", "runtime(min)"}}
	for _, row := range r.Rows {
		t.add(row.Sample, row.Config, f1(row.RuntimeMin))
	}
	return "== Table 9: one BO run on SVM (samples 0* are the LHS bootstrap)\n" + t.String()
}

// Table9 logs a single BO run on SVM, bootstrap samples first.
func Table9(c Config) *Table9Result {
	cl := cluster.A()
	wl := workload.SVM()
	ev := tune.NewEvaluator(cl, wl, c.seed())
	tune.Drive(bo.NewTuner(ev.Space, bo.Options{Seed: c.seed(), UsePaperLHS: true}, nil, nil), ev)
	res := &Table9Result{}
	for i, s := range ev.History() {
		label := fmt.Sprint(i - 3)
		if i < 4 {
			label = fmt.Sprintf("0.%d", i+1)
		}
		res.Rows = append(res.Rows, Table9Row{label, s.Config.String(), s.RuntimeSec / 60})
	}
	return res
}

// Figure18 and Figure19: training time + iteration distributions.
type BoxesResult struct {
	ID, App string
	Boxes   map[string]stats.BoxSummary // policy → training-minutes box
	Iters   map[string]stats.BoxSummary // policy → iterations box
}

func (r *BoxesResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: BO vs GBO training distributions for %s\n", r.ID, r.App)
	for _, p := range []string{"BO", "GBO"} {
		box := r.Boxes[p]
		it := r.Iters[p]
		fmt.Fprintf(&b, "%-4s time(min): min %.0f  q25 %.0f  med %.0f  q75 %.0f  max %.0f   iters: %.0f/%.0f/%.0f\n",
			p, box.Min, box.Q25, box.Median, box.Q75, box.Max, it.Q25, it.Median, it.Q75)
	}
	return b.String()
}

func boxesFor(c Config, wl workload.Spec, id string) *BoxesResult {
	cl := cluster.A()
	base := baselineFor(cl, wl, c.seed()+911)
	res := &BoxesResult{ID: id, App: wl.Name, Boxes: map[string]stats.BoxSummary{}, Iters: map[string]stats.BoxSummary{}}
	reps := c.reps(7)
	for _, policy := range []string{"BO", "GBO"} {
		var mins, iters []float64
		for rep := 0; rep < reps; rep++ {
			run := trainPolicy(policy, cl, wl, c.seed()+uint64(rep)*4241+uint64(len(policy)), base.Top5Sec)
			mins = append(mins, run.StressToTop5/60)
			iters = append(iters, float64(run.IterToTop5))
		}
		res.Boxes[policy] = stats.Box(mins)
		res.Iters[policy] = stats.Box(iters)
	}
	return res
}

// Figure18 runs the distribution study for K-means.
func Figure18(c Config) *BoxesResult { return boxesFor(c, workload.KMeans(), "Figure 18") }

// Figure19 runs the distribution study for SVM.
func Figure19(c Config) *BoxesResult { return boxesFor(c, workload.SVM(), "Figure 19") }

// Figure20Result holds convergence curves for K-means.
type Figure20Result struct {
	DefaultMin float64
	Top5Min    float64
	Curves     map[string][][]float64 // policy → per-rep best-so-far (minutes)
}

func (r *Figure20Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== Figure 20: convergence on K-means (default %.1fmin, top-5%% bar %.1fmin)\n", r.DefaultMin, r.Top5Min)
	for _, p := range []string{"DDPG", "BO", "GBO"} {
		reps := r.Curves[p]
		if len(reps) == 0 {
			continue
		}
		n := 0
		for _, c := range reps {
			if len(c) > n {
				n = len(c)
			}
		}
		fmt.Fprintf(&b, "%-5s best-so-far(min) mean over %d reps:", p, len(reps))
		for i := 0; i < n; i++ {
			var vals []float64
			for _, c := range reps {
				v := math.Inf(1)
				if i < len(c) {
					v = c[i]
				} else if len(c) > 0 {
					v = c[len(c)-1]
				}
				if !math.IsInf(v, 0) {
					vals = append(vals, v)
				}
			}
			if len(vals) == 0 {
				b.WriteString(" -") // no completed run yet at this sample
				continue
			}
			fmt.Fprintf(&b, " %.1f", stats.Mean(vals)/60)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Figure20 collects best-so-far convergence curves of DDPG, BO and GBO on
// K-means across repetitions.
func Figure20(c Config) *Figure20Result {
	cl := cluster.A()
	wl := workload.KMeans()
	base := baselineFor(cl, wl, c.seed()+912)
	res := &Figure20Result{
		DefaultMin: base.DefaultMin,
		Top5Min:    base.Top5Sec / 60,
		Curves:     map[string][][]float64{},
	}
	reps := c.reps(5)
	for _, policy := range []string{"DDPG", "BO", "GBO"} {
		for rep := 0; rep < reps; rep++ {
			run := trainPolicy(policy, cl, wl, c.seed()+uint64(rep)*6007+uint64(len(policy)*13), base.Top5Sec)
			res.Curves[policy] = append(res.Curves[policy], run.Curve)
		}
	}
	return res
}
