package experiments

import (
	"fmt"
	"strings"

	"relm/internal/conf"
	"relm/internal/core"
	"relm/internal/profile"
	"relm/internal/sim"
	"relm/internal/sim/cluster"
	"relm/internal/sim/workload"
	"relm/internal/stats"
)

func init() {
	register("table6", "Table 6 statistics derived from a PageRank profile", func(c Config) fmt.Stringer { return Table6(c) })
	register("figure13", "Arbitrator working example on PageRank", func(c Config) fmt.Stringer { return Figure13(c) })
	register("figure22", "RelM sensitivity to profiles with/without full GC events (SVM)", func(c Config) fmt.Stringer { return Figure22(c) })
	register("figure23", "Mi/Mu estimate variability across 16 initial profiles", func(c Config) fmt.Stringer { return Figure23(c) })
	register("figure24", "utility-score rank vs runtime rank per container count", func(c Config) fmt.Stringer { return Figure24(c) })
}

// Table6Result carries the derived statistics.
type Table6Result struct{ Stats profile.Stats }

func (r *Table6Result) String() string {
	return "== Table 6: statistics from a PageRank profile (defaults)\n" + r.Stats.String() + "\n"
}

// Table6 profiles PageRank on the default setup and derives Table 6.
func Table6(c Config) *Table6Result {
	_, prof := sim.Run(cluster.A(), workload.PageRank(), conf.Default(), c.seed())
	return &Table6Result{Stats: profile.Generate(prof)}
}

// Figure13Result is the Arbitrator trace.
type Figure13Result struct {
	Containers int
	Steps      []core.Step
	Final      conf.Config
}

func (r *Figure13Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== Figure 13: Arbitrator steps on PageRank (n=%d)\n", r.Containers)
	for i, s := range r.Steps {
		fmt.Fprintf(&b, "(%d) %-7s p=%d mc=%.1fGB NR=%d mo=%.1fGB\n",
			i+1, s.Action, s.Pools.P, s.Pools.McMB/1024, s.Pools.NewRatio, s.Pools.MoMB/1024)
	}
	fmt.Fprintf(&b, "final: %v\n", r.Final)
	return b.String()
}

// Figure13 reproduces the working example: the Arbitrator's round-robin
// repair steps on the PageRank profile at one container per node.
func Figure13(c Config) *Figure13Result {
	cl := cluster.A()
	_, prof := sim.Run(cl, workload.PageRank(), conf.Default(), c.seed())
	st := profile.Generate(prof)
	tuner := core.New(cl)
	pools := tuner.Initialize(st, 1)
	cand, _ := tuner.Arbitrate(st, pools)
	_, cands, err := tuner.Recommend(st)
	final := conf.Config{}
	if err == nil {
		for _, cd := range cands {
			if cd.Containers == 1 {
				final = cd.Config
			}
		}
	}
	return &Figure13Result{Containers: 1, Steps: cand.Trace, Final: final}
}

// Figure22Point is one profiled-configuration → recommendation outcome.
type Figure22Point struct {
	ProfileCfg string
	FullGC     bool
	MuEstimate float64
	RecRuntime float64 // minutes of the resulting recommendation
	RecAborted bool
}

// Figure22Result is the profile-sensitivity study.
type Figure22Result struct {
	TrueMu float64
	Points []Figure22Point
}

func (r *Figure22Result) String() string {
	t := &table{header: []string{"profile config", "fullGC", "Mu est (MB)", "over-estimate x", "rec runtime(min)"}}
	for _, p := range r.Points {
		rec := f1(p.RecRuntime)
		if p.RecRuntime == 0 {
			// With a grossly over-estimated Mu the Arbitrator can find no
			// feasible container size at all.
			rec = "no feasible rec"
		}
		t.add(p.ProfileCfg, fmt.Sprintf("%v", p.FullGC), f0(p.MuEstimate), f1(p.MuEstimate/r.TrueMu), rec)
	}
	return fmt.Sprintf("== Figure 22: RelM sensitivity to the initial SVM profile (true Mu ≈ %.0fMB)\n%s", r.TrueMu, t)
}

// Figure22 invokes RelM with SVM profiles generated from many initial
// configurations. Profiles without full-GC events over-estimate Mu by up to
// two orders of magnitude and produce reliable but sub-optimal
// recommendations; profiles with full GC cluster tightly.
func Figure22(c Config) *Figure22Result {
	cl := cluster.A()
	wl := workload.SVM()
	tuner := core.New(cl)
	res := &Figure22Result{TrueMu: wl.Stages[1].UnmanagedMBPerTask}
	for _, n := range []int{1, 2} {
		for _, p := range []int{1, 2, 3, 4} {
			for _, nr := range []int{2, 4, 6} {
				cfg := conf.Default()
				cfg.ContainersPerNode = n
				cfg.TaskConcurrency = p
				cfg.NewRatio = nr
				_, prof := sim.Run(cl, wl, cfg, c.seed()+uint64(n*100+p*10+nr))
				st := profile.Generate(prof)
				rec, _, err := tuner.Recommend(st)
				point := Figure22Point{
					ProfileCfg: fmt.Sprintf("n=%d p=%d NR=%d", n, p, nr),
					FullGC:     st.HadFullGC,
					MuEstimate: st.MuMB,
				}
				if err == nil {
					r, _ := sim.Run(cl, wl, rec, c.seed()+4242)
					point.RecRuntime = r.RuntimeMin()
					point.RecAborted = r.Aborted
				}
				res.Points = append(res.Points, point)
			}
		}
	}
	return res
}

// Figure23Result reports per-app Mi/Mu estimate spread across profiles.
type Figure23Result struct{ Rows []Figure23Row }

// Figure23Row is one app's Mi/Mu estimate spread.
type Figure23Row struct {
	App                string
	MiMean, MiStdErr   float64
	MuMean, MuStdErr   float64
	ProfilesWithFullGC int
}

func (r *Figure23Result) String() string {
	t := &table{header: []string{"app", "Mi mean(MB)", "Mi stderr", "Mu mean(MB)", "Mu stderr", "profiles w/ full GC"}}
	for _, row := range r.Rows {
		t.add(row.App, f0(row.MiMean), f1(row.MiStdErr), f0(row.MuMean), f1(row.MuStdErr), fmt.Sprint(row.ProfilesWithFullGC))
	}
	return "== Figure 23: Mi/Mu estimates across 16 initial profiles (full-GC profiles only)\n" + t.String()
}

// Figure23 invokes the statistics generator with 16 unique initial profiles
// per application and reports the spread of the Mi and Mu estimates (only
// profiles containing full-GC events contribute, as in the paper).
func Figure23(c Config) *Figure23Result {
	cl := cluster.A()
	res := &Figure23Result{}
	for _, wl := range workload.Benchmarks() {
		var mis, mus []float64
		withFull := 0
		count := 0
		for _, n := range []int{1, 2} {
			for _, p := range []int{2, 4} {
				for _, nr := range []int{2, 4} {
					if count >= 16 {
						break
					}
					cfg := defaultFor(wl)
					cfg.ContainersPerNode = n
					cfg.TaskConcurrency = p
					cfg.NewRatio = nr
					// Two seeds per configuration → 16 unique profiles.
					for s := uint64(0); s < 2; s++ {
						_, prof := sim.Run(cl, wl, cfg, c.seed()+uint64(n*1000+p*100+nr*10)+s)
						st := profile.Generate(prof)
						count++
						if !st.HadFullGC {
							continue
						}
						withFull++
						mis = append(mis, st.MiMB)
						mus = append(mus, st.MuMB)
					}
				}
			}
		}
		res.Rows = append(res.Rows, Figure23Row{wl.Name, stats.Mean(mis), stats.StdErr(mis), stats.Mean(mus), stats.StdErr(mus), withFull})
	}
	return res
}

// Figure24Result reports the rank correlation between RelM's utility score
// and the measured runtime across container counts.
type Figure24Result struct{ Rows []Figure24Row }

// Figure24Row is one app's utility scores and runtimes per container count.
type Figure24Row struct {
	App         string
	Utilities   []float64 // per container count 1..4 (0 = infeasible)
	RuntimesMin []float64
	Spearman    float64 // correlation of U rank vs (negated) runtime rank
}

func (r *Figure24Result) String() string {
	t := &table{header: []string{"app", "U(n=1..4)", "runtime(min, n=1..4)", "rank corr"}}
	for _, row := range r.Rows {
		var us, rs []string
		for i := range row.Utilities {
			us = append(us, f2(row.Utilities[i]))
			rs = append(rs, f1(row.RuntimesMin[i]))
		}
		t.add(row.App, strings.Join(us, " "), strings.Join(rs, " "), f2(row.Spearman))
	}
	return "== Figure 24: RelM utility-score ranking vs measured runtime ranking\n" + t.String()
}

// Figure24 evaluates, for every app and container count, the best RelM
// candidate's utility score against the measured runtime of that candidate,
// and reports the Spearman correlation between the two rankings (high
// utility should mean low runtime).
func Figure24(c Config) *Figure24Result {
	cl := cluster.A()
	tuner := core.New(cl)
	res := &Figure24Result{}
	for _, wl := range workload.Benchmarks() {
		cfg := defaultFor(wl)
		_, prof := sim.Run(cl, wl, cfg, c.seed())
		st := profile.Generate(prof)
		if !st.HadFullGC {
			re := cfg
			re.ContainersPerNode = 2
			re.TaskConcurrency = cfg.TaskConcurrency * 2
			re.NewRatio = cfg.NewRatio + 2
			_, prof2 := sim.Run(cl, wl, re, c.seed()+7)
			if st2 := profile.Generate(prof2); st2.HadFullGC {
				st = st2
			}
		}
		_, cands, err := tuner.Recommend(st)
		if err != nil {
			continue
		}
		row := Figure24Row{App: wl.Name}
		var us, negRuntimes []float64
		for _, cand := range cands {
			u := 0.0
			runtime := 0.0
			if cand.Feasible {
				u = cand.Utility
				r, _ := sim.Run(cl, wl, cand.Config, c.seed()+uint64(cand.Containers)*991)
				runtime = r.RuntimeMin()
				if r.Aborted {
					runtime *= 2
				}
				us = append(us, u)
				negRuntimes = append(negRuntimes, -runtime)
			}
			row.Utilities = append(row.Utilities, u)
			row.RuntimesMin = append(row.RuntimesMin, runtime)
		}
		row.Spearman = stats.Spearman(us, negRuntimes)
		res.Rows = append(res.Rows, row)
	}
	return res
}
