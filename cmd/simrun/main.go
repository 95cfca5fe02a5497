// Command simrun executes one (workload, configuration) pair on a simulated
// cluster and prints the run metrics and the Table 6 statistics derived from
// its profile.
//
// Usage:
//
//	simrun -workload PageRank -cluster A -n 1 -p 2 -cache 0.6 -shuffle 0 -nr 2 [-seed 1]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"relm/internal/conf"
	"relm/internal/profile"
	"relm/internal/sim"
	"relm/internal/sim/cluster"
	"relm/internal/sim/workload"
)

func main() {
	var (
		wlName  = flag.String("workload", "PageRank", "workload name (WordCount, SortByKey, K-means, SVM, PageRank, TPC-H Qn)")
		clName  = flag.String("cluster", "A", "cluster spec: A or B")
		n       = flag.Int("n", 1, "containers per node")
		p       = flag.Int("p", 2, "task concurrency")
		cache   = flag.Float64("cache", 0.6, "cache capacity fraction")
		shuffle = flag.Float64("shuffle", 0, "shuffle capacity fraction")
		nr      = flag.Int("nr", 2, "NewRatio")
		sr      = flag.Int("sr", 8, "SurvivorRatio")
		seed    = flag.Uint64("seed", 1, "random seed")
		reps    = flag.Int("reps", 1, "number of repeated runs")
		profOut = flag.String("profile", "", "write the first run's profile as JSON to this file")
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
		NewRatio: *nr, SurvivorRatio: *sr,
	}
	for i := 0; i < *reps; i++ {
		res, prof := sim.Run(cl, wl, cfg, *seed+uint64(i)*7919)
		fmt.Printf("run %d: %.1f min aborted=%v failures=%d heapUtil=%.2f cpu=%.2f disk=%.2f gc=%.2f H=%.2f S=%.2f\n",
			i, res.RuntimeMin(), res.Aborted, res.ContainerFailures,
			res.MaxHeapUtil, res.CPUAvg, res.DiskAvg, res.GCOverhead,
			res.CacheHitRatio, res.SpillFraction)
		if i == 0 {
			fmt.Println("stats:", profile.Generate(prof))
			if *profOut != "" {
				if err := writeProfileJSON(*profOut, prof); err != nil {
					fmt.Fprintln(os.Stderr, "profile export:", err)
					os.Exit(1)
				}
				fmt.Println("profile written to", *profOut)
			}
		}
	}
}

// writeProfileJSON exports the full profiling artifact for external
// analysis: timelines, the run's GC log (profile.Profile.EachGC expands it
// per container), and the task log as run-length Waves (EachTask).
func writeProfileJSON(path string, prof *profile.Profile) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", " ")
	if err := enc.Encode(prof); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
