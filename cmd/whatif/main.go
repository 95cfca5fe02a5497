// Command whatif answers what-if questions about a memory configuration
// using only white-box models — no cluster run: given a workload's profile
// (obtained from one default-configuration run) and a candidate
// configuration, it prints RelM's safety verdict and GBO's guide metrics
// (Equation 8), then optionally validates them against a simulated run.
//
// Usage:
//
//	whatif -workload K-means -n 2 -p 4 -cache 0.8 -nr 2 [-validate]
package main

import (
	"flag"
	"fmt"
	"os"

	"relm/internal/conf"
	"relm/internal/core"
	"relm/internal/gbo"
	"relm/internal/profile"
	"relm/internal/sim"
	"relm/internal/sim/cluster"
	"relm/internal/sim/workload"
)

func main() {
	var (
		wlName   = flag.String("workload", "K-means", "workload name")
		clName   = flag.String("cluster", "A", "cluster spec: A or B")
		n        = flag.Int("n", 1, "containers per node")
		p        = flag.Int("p", 2, "task concurrency")
		cache    = flag.Float64("cache", 0.6, "cache capacity fraction")
		shuffle  = flag.Float64("shuffle", 0, "shuffle capacity fraction")
		nr       = flag.Int("nr", 2, "NewRatio")
		seed     = flag.Uint64("seed", 1, "random seed for the profiling run")
		validate = flag.Bool("validate", false, "also simulate the configuration to check the prediction")
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
	cfg := conf.Config{
		ContainersPerNode: *n, TaskConcurrency: *p,
		CacheCapacity: *cache, ShuffleCapacity: *shuffle,
		NewRatio: *nr, SurvivorRatio: 8,
	}
	if err := cfg.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	// One profiling run on the defaults builds the white-box models.
	def := conf.Default()
	if !wl.UsesCache {
		def = conf.DefaultShuffle()
	}
	_, prof := sim.Run(cl, wl, def, *seed)
	st := profile.Generate(prof)
	fmt.Println("profile statistics:", st)

	// GBO's model Q: the three Equation 8 indicators.
	q := gbo.NewModel(cl, st).Metrics(cfg)
	fmt.Printf("\nwhat-if for %v:\n", cfg)
	fmt.Printf("  q1 expected heap occupancy:   %.2f  %s\n", q[0], verdict(q[0] > 1, "OVER-COMMITTED (unsafe)", q[0] < 0.45, "under-utilized", "healthy"))
	fmt.Printf("  q2 long-term memory fit:      %.2f  %s\n", q[1], verdict(q[1] > 1.25, "long-lived data will not fit (GC/disk overheads)", false, "", "fits"))
	fmt.Printf("  q3 shuffle vs half-Eden:      %.2f  %s\n", q[2], verdict(q[2] > 1, "spill batches exceed half of Eden (full-GC storms)", false, "", "bounded"))

	// RelM's Arbitrator verdict for this container size.
	tuner := core.New(cl)
	pools := tuner.Initialize(st, cfg.ContainersPerNode)
	pools.P = cfg.TaskConcurrency
	pools.McMB = cfg.CacheCapacity * cl.HeapPerContainer(cfg.ContainersPerNode)
	if _, feasible := tuner.Arbitrate(st, pools); feasible {
		fmt.Println("  RelM arbitration: a safe variant of this container size exists")
	} else {
		fmt.Println("  RelM arbitration: INFEASIBLE at this container size")
	}

	if *validate {
		res, _ := sim.Run(cl, wl, cfg, *seed+999)
		fmt.Printf("\nsimulated truth: %.1f min aborted=%v failures=%d gc=%.2f H=%.2f\n",
			res.RuntimeMin(), res.Aborted, res.ContainerFailures, res.GCOverhead, res.CacheHitRatio)
	}
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
