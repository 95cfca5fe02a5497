// Command relm-tune runs the RelM white-box tuner against a workload: it
// profiles the application once (twice when the first profile lacks full-GC
// events), prints the Table 6 statistics, the per-container-size candidates
// with their utility scores, and the final recommendation, then verifies the
// recommendation with a fresh run.
//
// Usage:
//
//	relm-tune -workload PageRank [-cluster A] [-seed 1] [-trace]
package main

import (
	"flag"
	"fmt"
	"os"

	"relm/internal/core"
	"relm/internal/profile"
	"relm/internal/sim"
	"relm/internal/sim/cluster"
	"relm/internal/sim/workload"
	"relm/internal/tune"
)

func main() {
	var (
		wlName = flag.String("workload", "PageRank", "workload to tune")
		clName = flag.String("cluster", "A", "cluster spec: A or B")
		seed   = flag.Uint64("seed", 1, "random seed")
		trace  = flag.Bool("trace", false, "print the Arbitrator trace of the chosen candidate")
	)
	flag.Parse()

	wl, ok := workload.ByName(*wlName)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown workload %q\n", *wlName)
		os.Exit(2)
	}
	cl, ok := cluster.ByName(*clName)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown cluster %q\n", *clName)
		os.Exit(2)
	}

	ev := tune.NewEvaluator(cl, wl, *seed)
	tuner := core.New(cl)
	rec, cands, err := tuner.TuneWorkload(ev)
	if err != nil {
		fmt.Fprintln(os.Stderr, "relm:", err)
		os.Exit(1)
	}

	prof := ev.History()[0].Profile
	fmt.Println("profile:", prof)
	fmt.Println("stats:  ", profile.Generate(prof))
	fmt.Printf("profiling runs: %d (%.1f min stress-testing)\n\n", ev.Evals(), ev.TotalRuntime()/60)

	fmt.Println("candidates:")
	for _, c := range cands {
		status := "ok"
		if !c.Feasible {
			status = "infeasible"
		}
		fmt.Printf("  n=%d  U=%.3f  %-10s  %v\n", c.Containers, c.Utility, status, c.Config)
		if *trace && c.Config == rec {
			for _, s := range c.Trace {
				fmt.Printf("    %-8s p=%d mc=%.0fMB NR=%d mo=%.0fMB\n",
					s.Action, s.Pools.P, s.Pools.McMB, s.Pools.NewRatio, s.Pools.MoMB)
			}
		}
	}

	fmt.Printf("\nrecommendation: %v\n", rec)
	res, _ := sim.Run(cl, wl, rec, *seed+999)
	fmt.Printf("verification run: %.1f min aborted=%v failures=%d gc=%.2f H=%.2f\n",
		res.RuntimeMin(), res.Aborted, res.ContainerFailures, res.GCOverhead, res.CacheHitRatio)

	def := ev.Space.Default()
	dres, _ := sim.Run(cl, wl, def, *seed+555)
	fmt.Printf("default run:      %.1f min aborted=%v failures=%d gc=%.2f H=%.2f\n",
		dres.RuntimeMin(), dres.Aborted, dres.ContainerFailures, dres.GCOverhead, dres.CacheHitRatio)
}
