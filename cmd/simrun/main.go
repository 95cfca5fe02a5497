// Command simrun is the offline command: it runs a (workload, configuration)
// pair on a simulated cluster and prints each run and the Table 6 statistics
// of the first. -whatif and -tune first answer from one default-configuration
// profile, and -tune runs RelM's pick in place of the flags' configuration.
// Any refusal or failure exits 2. Usage, one line per mode:
//
//	simrun -workload PageRank -cluster A -n 1 -p 2 -cache 0.6 -shuffle 0 -nr 2 [-seed 1] [-reps 1] [-profile out.json]
//	simrun -whatif -workload K-means -n 2 -p 4 -cache 0.8 [-reps 0]
//	simrun -tune -workload PageRank [-cluster A] [-trace]
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"relm/internal/conf"
	"relm/internal/core"
	"relm/internal/gbo"
	"relm/internal/profile"
	"relm/internal/sim"
	"relm/internal/sim/cluster"
	"relm/internal/sim/workload"
	"relm/internal/tune"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "simrun:", err)
		os.Exit(2)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("simrun", flag.ContinueOnError)
	var cfg conf.Config
	fs.IntVar(&cfg.ContainersPerNode, "n", 1, "containers per node")
	fs.IntVar(&cfg.TaskConcurrency, "p", 2, "task concurrency")
	fs.Float64Var(&cfg.CacheCapacity, "cache", 0.6, "cache capacity fraction")
	fs.Float64Var(&cfg.ShuffleCapacity, "shuffle", 0, "shuffle capacity fraction")
	fs.IntVar(&cfg.NewRatio, "nr", 2, "NewRatio")
	fs.IntVar(&cfg.SurvivorRatio, "sr", 8, "SurvivorRatio")
	var (
		wlName  = fs.String("workload", "PageRank", "workload name (WordCount, SortByKey, K-means, SVM, PageRank, TPC-H Qn)")
		clName  = fs.String("cluster", "A", "cluster spec: A or B")
		seed    = fs.Uint64("seed", 1, "random seed")
		reps    = fs.Int("reps", 1, "number of repeated runs")
		profOut = fs.String("profile", "", "write the first run's profile as JSON to this file (tasks as run-length Waves, the GC log once per run)")
		whatif  = fs.Bool("whatif", false, "first print GBO's q1-q3 and RelM's arbitration verdict for the configuration")
		tuneWl  = fs.Bool("tune", false, "first tune the workload with RelM, then run its recommendation")
		trace   = fs.Bool("trace", false, "with -tune, print the Arbitrator trace of the chosen candidate")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	wl, ok := workload.ByName(*wlName)
	if !ok {
		return fmt.Errorf("unknown workload %q", *wlName)
	}
	cl, ok := cluster.ByName(*clName)
	if !ok {
		return fmt.Errorf("unknown cluster %q", *clName)
	}
	err := cfg.Validate()
	if err != nil {
		return err
	}
	if *reps < 0 || *reps == 0 && *profOut != "" {
		return fmt.Errorf("-reps %d: want >= 0, or >= 1 with -profile", *reps)
	}

	ev := tune.NewEvaluator(cl, wl, *seed)
	if *tuneWl {
		if cfg, err = tuneWorkload(w, ev, *trace); err != nil {
			return err
		}
	}
	if *whatif {
		whatIf(w, ev, cfg)
	}
	for i := 0; i < *reps; i++ {
		res, prof := sim.Run(cl, wl, cfg, *seed+uint64(i)*7919)
		printRun(w, fmt.Sprintf("run %d", i), res)
		if i > 0 {
			continue
		}
		fmt.Fprintln(w, "stats:", profile.Generate(prof))
		if *profOut != "" {
			buf, err := json.MarshalIndent(prof, "", " ")
			if err == nil {
				err = os.WriteFile(*profOut, append(buf, '\n'), 0o644)
			}
			if err != nil {
				return fmt.Errorf("profile export: %w", err)
			}
			fmt.Fprintln(w, "profile written to", *profOut)
		}
	}
	if *tuneWl && *reps > 0 {
		res, _ := sim.Run(cl, wl, ev.Space.Default(), *seed+555)
		printRun(w, "default run", res)
	}
	return nil
}

// printRun is the one line every simulated run prints.
func printRun(w io.Writer, label string, res sim.Result) {
	fmt.Fprintf(w, "%s: %.1f min aborted=%v failures=%d heapUtil=%.2f cpu=%.2f disk=%.2f gc=%.2f H=%.2f S=%.2f\n",
		label, res.RuntimeMin(), res.Aborted, res.ContainerFailures,
		res.MaxHeapUtil, res.CPUAvg, res.DiskAvg, res.GCOverhead,
		res.CacheHitRatio, res.SpillFraction)
}

// tuneWorkload runs RelM, which profiles the workload once (twice when the
// first profile has no full GC), prints its candidates and returns its pick.
func tuneWorkload(w io.Writer, ev *tune.Evaluator, trace bool) (conf.Config, error) {
	rec, cands, err := core.New(ev.Cluster).TuneWorkload(ev)
	if err != nil {
		return rec, fmt.Errorf("relm: %w", err)
	}
	prof := ev.History()[0].Profile
	fmt.Fprintln(w, "profile:", prof)
	fmt.Fprintln(w, "stats:  ", profile.Generate(prof))
	fmt.Fprintf(w, "profiling runs: %d (%.1f min stress-testing)\n\n", ev.Evals(), ev.TotalRuntime()/60)

	fmt.Fprintln(w, "candidates:")
	for _, c := range cands {
		status := "ok"
		if !c.Feasible {
			status = "infeasible"
		}
		fmt.Fprintf(w, "  n=%d  U=%.3f  %-10s  %v\n", c.Containers, c.Utility, status, c.Config)
		if trace && c.Config == rec {
			for _, s := range c.Trace {
				fmt.Fprintf(w, "    %-8s p=%d mc=%.0fMB NR=%d mo=%.0fMB\n",
					s.Action, s.Pools.P, s.Pools.McMB, s.Pools.NewRatio, s.Pools.MoMB)
			}
		}
	}
	fmt.Fprintf(w, "\nrecommendation: %v\n\n", rec)
	return rec, nil
}

// whatIf prints GBO's Equation 8 indicators and RelM's Arbitrator verdict
// for cfg, both read from the evaluator's first run, the default's profile.
func whatIf(w io.Writer, ev *tune.Evaluator, cfg conf.Config) {
	if ev.Evals() == 0 {
		ev.Eval(ev.Space.Default())
	}
	st := profile.Generate(ev.History()[0].Profile)
	fmt.Fprintln(w, "profile statistics:", st)

	q := gbo.NewModel(ev.Cluster, st).Metrics(cfg)
	fmt.Fprintf(w, "\nwhat-if for %v:\n", cfg)
	fmt.Fprintf(w, "  q1 expected heap occupancy:   %.2f  %s\n", q[0], verdict(q[0] > 1, "OVER-COMMITTED (unsafe)", q[0] < 0.45, "under-utilized", "healthy"))
	fmt.Fprintf(w, "  q2 long-term memory fit:      %.2f  %s\n", q[1], verdict(q[1] > 1.25, "long-lived data will not fit (GC/disk overheads)", false, "", "fits"))
	fmt.Fprintf(w, "  q3 shuffle vs half-Eden:      %.2f  %s\n", q[2], verdict(q[2] > 1, "spill batches exceed half of Eden (full-GC storms)", false, "", "bounded"))

	tuner := core.New(ev.Cluster)
	pools := tuner.Initialize(st, cfg.ContainersPerNode)
	pools.P = cfg.TaskConcurrency
	pools.McMB = cfg.CacheCapacity * ev.Cluster.HeapPerContainer(cfg.ContainersPerNode)
	arbitration := "INFEASIBLE at this container size"
	if _, feasible := tuner.Arbitrate(st, pools); feasible {
		arbitration = "a safe variant of this container size exists"
	}
	fmt.Fprintf(w, "  RelM arbitration: %s\n\n", arbitration)
}

func verdict(bad bool, badMsg string, warn bool, warnMsg, okMsg string) string {
	switch {
	case bad:
		return "⚠ " + badMsg
	case warn:
		return "~ " + warnMsg
	default:
		return "✓ " + okMsg
	}
}
