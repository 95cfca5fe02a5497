package experiments

import (
	"fmt"
	"math"
	"strings"

	"relm/internal/conf"
	"relm/internal/sim"
	"relm/internal/sim/cluster"
	"relm/internal/sim/jvm"
	"relm/internal/sim/workload"
	"relm/internal/stats"
)

func init() {
	register("figure4", "containers per node 1-4: runtime, heap/CPU/disk utilization", func(c Config) fmt.Stringer { return Figure4(c) })
	register("figure5", "failure counts on three unsafe configurations, 5 runs each", func(c Config) fmt.Stringer { return Figure5(c) })
	register("figure6", "task concurrency 1-8 sweep", func(c Config) fmt.Stringer { return Figure6(c) })
	register("figure7", "cache/shuffle capacity sweep", func(c Config) fmt.Stringer { return Figure7(c) })
	register("figure8", "NewRatio x CacheCapacity heatmaps for K-means", func(c Config) fmt.Stringer { return Figure8(c) })
	register("figure9", "NewRatio vs GC overhead for K-means (cache 0.6)", func(c Config) fmt.Stringer { return Figure9(c) })
	register("figure10", "NewRatio x ShuffleCapacity for SortByKey", func(c Config) fmt.Stringer { return Figure10(c) })
	register("figure11", "RSS timeline: NewRatio 2 vs 5 under native-buffer pressure", func(c Config) fmt.Stringer { return Figure11(c) })
	register("table5", "manual tuning of PageRank (4 configurations)", func(c Config) fmt.Stringer { return Table5(c) })
}

// defaultFor builds the default config with the unified pool assigned to
// the app's dominant pool.
func defaultFor(wl workload.Spec) conf.Config {
	if wl.UsesCache {
		return conf.Default()
	}
	return conf.DefaultShuffle()
}

// SweepPoint is one measured configuration of a §3 sweep.
type SweepPoint struct {
	App      string
	X        float64 // swept parameter value
	Runtime  float64 // minutes (non-aborted runs)
	Scaled   float64 // runtime normalized to the sweep's reference point
	HeapUtil float64
	CPUUtil  float64
	DiskUtil float64
	GCOver   float64
	HitRatio float64
	Failed   bool // aborted under this setting
}

// SweepResult is a collection of sweep points with a title.
type SweepResult struct {
	ID     string
	Title  string
	Points []SweepPoint
}

// String renders the sweep as a table.
func (r *SweepResult) String() string {
	t := &table{header: []string{"app", "x", "scaled", "runtime(min)", "heapUtil", "cpu", "disk", "gc", "hit", "failed"}}
	for _, p := range r.Points {
		t.add(p.App, f2(p.X), f2(p.Scaled), f1(p.Runtime), f2(p.HeapUtil), f2(p.CPUUtil),
			f2(p.DiskUtil), f2(p.GCOver), f2(p.HitRatio), fmt.Sprintf("%v", p.Failed))
	}
	return fmt.Sprintf("== %s: %s\n%s", r.ID, r.Title, t)
}

// medianRun executes reps runs and returns the median-runtime result among
// completed runs; failed reports whether the majority aborted.
func medianRun(cl cluster.Spec, wl workload.Spec, cfg conf.Config, seed uint64, reps int) (sim.Result, bool) {
	var ok []sim.Result
	aborts := 0
	var last sim.Result
	for i := 0; i < reps; i++ {
		r, _ := sim.Run(cl, wl, cfg, seed+uint64(i)*7919)
		last = r
		if r.Aborted {
			aborts++
		} else {
			ok = append(ok, r)
		}
	}
	if len(ok) == 0 {
		return last, true
	}
	// median by runtime
	best := ok[0]
	runtimes := make([]float64, len(ok))
	for i, r := range ok {
		runtimes[i] = r.RuntimeSec
	}
	med := stats.Median(runtimes)
	for _, r := range ok {
		if math.Abs(r.RuntimeSec-med) < math.Abs(best.RuntimeSec-med) {
			best = r
		}
	}
	return best, aborts > len(ok)
}

// sweepPoint is the measurement r at swept value x, its runtime scaled to
// the reference runtime ref (seconds).
func sweepPoint(app string, x float64, r sim.Result, ref float64, failed bool) SweepPoint {
	return SweepPoint{
		App: app, X: x,
		Runtime: r.RuntimeMin(), Scaled: r.RuntimeSec / ref,
		HeapUtil: r.MaxHeapUtil, CPUUtil: r.CPUAvg, DiskUtil: r.DiskAvg,
		GCOver: r.GCOverhead, HitRatio: r.CacheHitRatio, Failed: failed,
	}
}

// Figure4 sweeps Containers per Node from 1 to 4 for the four §3.1 apps
// (PageRank is excluded: it fails under every setting, as in the paper).
func Figure4(c Config) *SweepResult {
	cl := cluster.A()
	res := &SweepResult{ID: "Figure 4", Title: "impact of containers per node (runtime scaled to n=1)"}
	apps := []workload.Spec{workload.WordCount(), workload.SortByKey(), workload.KMeans(), workload.SVM()}
	reps := c.reps(3)
	for _, wl := range apps {
		var ref float64
		for n := 1; n <= 4; n++ {
			cfg := defaultFor(wl)
			cfg.ContainersPerNode = n
			r, failed := medianRun(cl, wl, cfg, c.seed(), reps)
			if n == 1 {
				ref = r.RuntimeSec
			}
			res.Points = append(res.Points, sweepPoint(wl.Name, float64(n), r, ref, failed))
		}
	}
	return res
}

// FailureRun is one repetition of a Figure 5 setup.
type FailureRun struct {
	Setup      string
	Run        int
	RuntimeMin float64
	Failures   int
	Aborted    bool
}

// Figure5Result holds the §3.1 failure study.
type Figure5Result struct{ Runs []FailureRun }

// String renders Figure 5's points (runtime with failure labels, * = abort).
func (r *Figure5Result) String() string {
	t := &table{header: []string{"setup", "run", "runtime(min)", "container failures", "aborted"}}
	for _, run := range r.Runs {
		mark := ""
		if run.Aborted {
			mark = "*"
		}
		t.add(run.Setup, fmt.Sprint(run.Run), f1(run.RuntimeMin), fmt.Sprintf("%d%s", run.Failures, mark), fmt.Sprintf("%v", run.Aborted))
	}
	return "== Figure 5: failures on unsafe configurations (* aborted)\n" + t.String()
}

// Figure5 probes the paper's three unsafe setups five times each:
// SortByKey with 70% heap for shuffle, K-means with 4 containers per node,
// and PageRank at the defaults.
func Figure5(c Config) *Figure5Result {
	cl := cluster.A()
	reps := c.reps(5)
	res := &Figure5Result{}

	type setup struct {
		name string
		wl   workload.Spec
		cfg  conf.Config
	}
	sbk := conf.DefaultShuffle()
	sbk.ShuffleCapacity = 0.7
	km := conf.Default()
	km.ContainersPerNode = 4
	setups := []setup{
		{"SortByKey shuffle=0.7", workload.SortByKey(), sbk},
		{"K-means 4 containers", workload.KMeans(), km},
		{"PageRank defaults", workload.PageRank(), conf.Default()},
	}
	for si, s := range setups {
		for i := 0; i < reps; i++ {
			r, _ := sim.Run(cl, s.wl, s.cfg, c.seed()+uint64(si*1000+i)*7919)
			res.Runs = append(res.Runs, FailureRun{
				Setup: s.name, Run: i,
				RuntimeMin: r.RuntimeMin(), Failures: r.ContainerFailures, Aborted: r.Aborted,
			})
		}
	}
	return res
}

// Figure6 sweeps Task Concurrency 1..8 for the five benchmark apps
// (runtime scaled to p=1). PageRank runs out of memory for p >= 2.
func Figure6(c Config) *SweepResult {
	cl := cluster.A()
	res := &SweepResult{ID: "Figure 6", Title: "impact of task concurrency (runtime scaled to p=1)"}
	reps := c.reps(3)
	for _, wl := range workload.Benchmarks() {
		var ref float64
		for p := 1; p <= 8; p++ {
			cfg := defaultFor(wl)
			cfg.TaskConcurrency = p
			r, failed := medianRun(cl, wl, cfg, c.seed(), reps)
			if p == 1 {
				ref = r.RuntimeSec
			}
			res.Points = append(res.Points, sweepPoint(wl.Name, float64(p), r, ref, failed))
		}
	}
	return res
}

// Figure7 sweeps the dominant pool capacity 0.1..0.9: Shuffle Capacity for
// WordCount and SortByKey, Cache Capacity for K-means, SVM and PageRank
// (runtime scaled to the 0.1 point; PageRank uses Task Concurrency 1 as in
// the paper, to avoid its default-concurrency OOMs).
func Figure7(c Config) *SweepResult {
	cl := cluster.A()
	res := &SweepResult{ID: "Figure 7", Title: "impact of cache/shuffle capacity (runtime scaled to 0.1)"}
	reps := c.reps(3)
	for _, wl := range workload.Benchmarks() {
		var ref float64
		for _, frac := range []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9} {
			cfg := defaultFor(wl)
			if wl.UsesCache {
				cfg.CacheCapacity = frac
			} else {
				cfg.ShuffleCapacity = frac
			}
			if wl.Name == "PageRank" {
				cfg.TaskConcurrency = 1
			}
			r, failed := medianRun(cl, wl, cfg, c.seed(), reps)
			if ref == 0 {
				ref = r.RuntimeSec
			}
			res.Points = append(res.Points, sweepPoint(wl.Name, frac, r, ref, failed))
		}
	}
	return res
}

// HeatCell is one (NewRatio, capacity) measurement.
type HeatCell struct {
	NewRatio int
	Capacity float64
	Runtime  float64
	GCOver   float64
	HitRatio float64
	Failed   bool
}

// HeatResult is a NewRatio × capacity study (Figures 8 and 10).
type HeatResult struct {
	ID, Title string
	Cells     []HeatCell
}

// String renders the heatmap cells as rows.
func (r *HeatResult) String() string {
	t := &table{header: []string{"NewRatio", "capacity", "runtime(min)", "gc", "hit", "failed"}}
	for _, cell := range r.Cells {
		t.add(fmt.Sprint(cell.NewRatio), f2(cell.Capacity), f1(cell.Runtime), f2(cell.GCOver), f2(cell.HitRatio), fmt.Sprintf("%v", cell.Failed))
	}
	return fmt.Sprintf("== %s: %s\n%s", r.ID, r.Title, t)
}

// Figure8 maps NewRatio (1-4) × Cache Capacity (0.4-0.8) for K-means.
func Figure8(c Config) *HeatResult {
	cl := cluster.A()
	wl := workload.KMeans()
	res := &HeatResult{ID: "Figure 8", Title: "K-means: NewRatio x CacheCapacity"}
	reps := c.reps(3)
	for nr := 1; nr <= 4; nr++ {
		for _, cap := range []float64{0.4, 0.5, 0.6, 0.7, 0.8} {
			cfg := conf.Default()
			cfg.NewRatio = nr
			cfg.CacheCapacity = cap
			r, failed := medianRun(cl, wl, cfg, c.seed(), reps)
			res.Cells = append(res.Cells, HeatCell{
				NewRatio: nr, Capacity: cap,
				Runtime: r.RuntimeMin(), GCOver: r.GCOverhead, HitRatio: r.CacheHitRatio, Failed: failed,
			})
		}
	}
	return res
}

// Figure9Result is the NewRatio → GC overhead curve for K-means.
type Figure9Result struct {
	NewRatios []int
	GCOver    []float64
	GCStd     []float64
}

// String renders the curve.
func (r *Figure9Result) String() string {
	t := &table{header: []string{"NewRatio", "gcOverhead", "std"}}
	for i, nr := range r.NewRatios {
		t.add(fmt.Sprint(nr), f2(r.GCOver[i]), f2(r.GCStd[i]))
	}
	return "== Figure 9: K-means GC overhead vs NewRatio (cache 0.6)\n" + t.String()
}

// Figure9 sweeps NewRatio 1..8 for K-means at Cache Capacity 0.6.
func Figure9(c Config) *Figure9Result {
	cl := cluster.A()
	wl := workload.KMeans()
	res := &Figure9Result{}
	reps := c.reps(4)
	for nr := 1; nr <= 8; nr++ {
		cfg := conf.Default()
		cfg.NewRatio = nr
		var overs []float64
		for i := 0; i < reps; i++ {
			r, _ := sim.Run(cl, wl, cfg, c.seed()+uint64(i)*31)
			if !r.Aborted {
				overs = append(overs, r.GCOverhead)
			}
		}
		res.NewRatios = append(res.NewRatios, nr)
		res.GCOver = append(res.GCOver, stats.Mean(overs))
		res.GCStd = append(res.GCStd, stats.Std(overs))
	}
	return res
}

// Figure10 maps NewRatio (1-3) × Shuffle Capacity (0.05-0.3) for SortByKey.
func Figure10(c Config) *HeatResult {
	cl := cluster.A()
	wl := workload.SortByKey()
	res := &HeatResult{ID: "Figure 10", Title: "SortByKey: NewRatio x ShuffleCapacity"}
	reps := c.reps(3)
	for nr := 1; nr <= 3; nr++ {
		for _, cap := range []float64{0.05, 0.1, 0.15, 0.2, 0.25, 0.3} {
			cfg := conf.DefaultShuffle()
			cfg.NewRatio = nr
			cfg.ShuffleCapacity = cap
			r, failed := medianRun(cl, wl, cfg, c.seed(), reps)
			res.Cells = append(res.Cells, HeatCell{
				NewRatio: nr, Capacity: cap,
				Runtime: r.RuntimeMin(), GCOver: r.GCOverhead, Failed: failed,
			})
		}
	}
	return res
}

// Figure11Result compares native-memory growth between two NewRatio
// settings on a fetch-heavy container.
type Figure11Result struct {
	PhysCapMB  float64
	HeapMB     float64
	Timelines  map[int][]float64 // NewRatio → RSS samples (MB, 1s apart)
	PeakRSS    map[int]float64
	GCInterval map[int]float64
	Exceeds    map[int]bool
}

// String summarizes the two timelines.
func (r *Figure11Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== Figure 11: RSS growth vs physical cap (%.0fMB, heap %.0fMB)\n", r.PhysCapMB, r.HeapMB)
	for _, nr := range []int{2, 5} {
		fmt.Fprintf(&b, "NewRatio=%d: peak RSS %.0fMB, GC interval %.1fs, exceeds cap: %v\n",
			nr, r.PeakRSS[nr], r.GCInterval[nr], r.Exceeds[nr])
		tl := r.Timelines[nr]
		step := len(tl) / 12
		if step < 1 {
			step = 1
		}
		fmt.Fprintf(&b, "  rss(MB):")
		for i := 0; i < len(tl); i += step {
			fmt.Fprintf(&b, " %.0f", tl[i])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Figure11 reproduces the memory-usage timeline contrast: a PageRank-style
// fetch-heavy container under NewRatio 2 grows its resident set past the
// resource-manager cap between collections, while NewRatio 5 collects the
// native buffers frequently enough to stay under it (Observation 6).
func Figure11(c Config) *Figure11Result {
	cl := cluster.A()
	wl := workload.PageRank()
	res := &Figure11Result{
		PhysCapMB:  cl.PhysCapPerContainer(1),
		HeapMB:     cl.HeapPerContainer(1),
		Timelines:  map[int][]float64{},
		PeakRSS:    map[int]float64{},
		GCInterval: map[int]float64{},
		Exceeds:    map[int]bool{},
	}
	for _, nr := range []int{2, 5} {
		layout := jvm.Layout{HeapMB: res.HeapMB, NewRatio: nr, SurvivorRatio: 8}
		heap := jvm.New(layout, jvm.DefaultCostModel())
		heap.Tenure(wl.CodeOverheadMB)
		st := wl.Stages[0] // the coalesce stage
		load := jvm.WaveLoad{
			Duration:       40,
			AllocMB:        2 * (st.BytesProcessed() + st.NetworkMBPerTask*0.3) * st.AllocFactor,
			LiveShortMB:    2 * st.UnmanagedMBPerTask,
			PromoteMB:      st.CacheWriteMBPerTask,
			LongLivedMB:    wl.CodeOverheadMB + st.CacheWriteMBPerTask,
			NativeRateMBps: 60,
			Tasks:          2,
		}
		gc := heap.SimulateWave(load)
		res.PeakRSS[nr] = gc.PeakRSS
		res.GCInterval[nr] = gc.GCEvery
		res.Exceeds[nr] = gc.PeakRSS > res.PhysCapMB

		// Reconstruct the sawtooth the paper plots: native buffers grow at
		// the fetch rate and drop at each effective collection.
		base := res.HeapMB*1.03 + jvm.DefaultCostModel().NativeBaseMB
		var tl []float64
		t := 0.0
		for t < load.Duration {
			phase := t - float64(int(t/gc.GCEvery))*gc.GCEvery
			tl = append(tl, base+load.NativeRateMBps*phase)
			t += 1
		}
		res.Timelines[nr] = tl
	}
	return res
}

// Table5Row is one manual-tuning step of §3.5.
type Table5Row struct {
	Containers  int
	Concurrency int
	Cache       float64
	NewRatio    int
	RuntimeMin  float64
	Aborted     bool
	HitRatio    float64
	GCOverhead  float64
}

// Table5Result is the manual PageRank tuning study.
type Table5Result struct{ Rows []Table5Row }

// String renders Table 5.
func (r *Table5Result) String() string {
	t := &table{header: []string{"n", "p", "cache", "NR", "runtime(min)", "hit", "gc"}}
	for _, row := range r.Rows {
		rt := f0(row.RuntimeMin)
		if row.Aborted {
			rt += " (aborted)"
		}
		t.add(fmt.Sprint(row.Containers), fmt.Sprint(row.Concurrency), f2(row.Cache),
			fmt.Sprint(row.NewRatio), rt, f2(row.HitRatio), f2(row.GCOverhead))
	}
	return "== Table 5: manual tuning of PageRank\n" + t.String()
}

// Table5 replays the paper's four manual PageRank configurations.
func Table5(c Config) *Table5Result {
	cl := cluster.A()
	wl := workload.PageRank()
	res := &Table5Result{}
	reps := c.reps(5)
	rows := []conf.Config{
		{ContainersPerNode: 1, TaskConcurrency: 2, CacheCapacity: 0.6, NewRatio: 2, SurvivorRatio: 8},
		{ContainersPerNode: 1, TaskConcurrency: 1, CacheCapacity: 0.6, NewRatio: 2, SurvivorRatio: 8},
		{ContainersPerNode: 1, TaskConcurrency: 2, CacheCapacity: 0.4, NewRatio: 2, SurvivorRatio: 8},
		{ContainersPerNode: 1, TaskConcurrency: 2, CacheCapacity: 0.6, NewRatio: 5, SurvivorRatio: 8},
	}
	for i, cfg := range rows {
		// The paper reports a representative run per row (the first row's
		// default setup aborts); we report the median of reps runs, marking
		// the row aborted when most runs abort.
		var runtimes []float64
		aborts := 0
		var hit, gc float64
		for rep := 0; rep < reps; rep++ {
			r, _ := sim.Run(cl, wl, cfg, c.seed()+uint64(i*100+rep)*7919)
			runtimes = append(runtimes, r.RuntimeSec)
			if r.Aborted {
				aborts++
			}
			hit += r.CacheHitRatio
			gc += r.GCOverhead
		}
		res.Rows = append(res.Rows, Table5Row{
			Containers: cfg.ContainersPerNode, Concurrency: cfg.TaskConcurrency,
			Cache: cfg.CacheCapacity, NewRatio: cfg.NewRatio,
			RuntimeMin: stats.Median(runtimes) / 60,
			Aborted:    aborts*2 > reps,
			HitRatio:   hit / float64(reps),
			GCOverhead: gc / float64(reps),
		})
	}
	return res
}
