package exec

import (
	"math"
	"testing"
	"testing/quick"

	"relm/internal/conf"
	"relm/internal/profile"
	"relm/internal/sim/cluster"
	"relm/internal/sim/workload"
)

func run(t *testing.T, wl workload.Spec, cfg conf.Config, seed uint64) Result {
	t.Helper()
	r, _ := Run(cluster.A(), wl, cfg, seed)
	return r
}

func TestDeterminism(t *testing.T) {
	for _, wl := range workload.Benchmarks() {
		a, _ := Run(cluster.A(), wl, conf.Default(), 42)
		b, _ := Run(cluster.A(), wl, conf.Default(), 42)
		if a != b {
			t.Errorf("%s: same seed produced different results:\n%+v\n%+v", wl.Name, a, b)
		}
	}
}

func TestSeedsVaryRuntime(t *testing.T) {
	a := run(t, workload.WordCount(), conf.DefaultShuffle(), 1)
	b := run(t, workload.WordCount(), conf.DefaultShuffle(), 2)
	if a.RuntimeSec == b.RuntimeSec {
		t.Fatal("different seeds should produce (slightly) different runtimes")
	}
}

func TestInvalidConfigAborts(t *testing.T) {
	bad := conf.Config{} // zero values are structurally invalid
	r, prof := Run(cluster.A(), workload.WordCount(), bad, 1)
	if !r.Aborted || !prof.Aborted {
		t.Fatal("invalid configuration must abort")
	}
}

func TestResultRanges(t *testing.T) {
	for _, wl := range workload.Benchmarks() {
		cfg := conf.Default()
		if !wl.UsesCache {
			cfg = conf.DefaultShuffle()
		}
		r, prof := Run(cluster.A(), wl, cfg, 7)
		if r.RuntimeSec <= 0 {
			t.Errorf("%s: non-positive runtime", wl.Name)
		}
		for name, v := range map[string]float64{
			"heapUtil": r.MaxHeapUtil, "cpu": r.CPUAvg, "disk": r.DiskAvg,
			"gc": r.GCOverhead, "hit": r.CacheHitRatio, "spill": r.SpillFraction,
		} {
			if v < 0 || v > 1.0001 || math.IsNaN(v) {
				t.Errorf("%s: %s = %v out of [0,1]", wl.Name, name, v)
			}
		}
		if len(prof.Containers) != cluster.A().Containers(cfg.ContainersPerNode) {
			t.Errorf("%s: %d container profiles", wl.Name, len(prof.Containers))
		}
		if !r.Aborted && prof.NumTasks() != wl.TotalTasks() {
			t.Errorf("%s: %d task events, want %d", wl.Name, prof.NumTasks(), wl.TotalTasks())
		}
	}
}

func TestContainerCountFollowsConfig(t *testing.T) {
	cfg := conf.Default()
	cfg.ContainersPerNode = 3
	_, prof := Run(cluster.A(), workload.KMeans(), cfg, 1)
	if len(prof.Containers) != 24 {
		t.Fatalf("containers = %d, want 24", len(prof.Containers))
	}
	if math.Abs(prof.HeapSizeMB-1468) > 1 {
		t.Fatalf("heap = %v, want 1468", prof.HeapSizeMB)
	}
}

// Observation 1: non-caching map/reduce apps speed up on thin containers.
func TestThinContainersHelpWordCount(t *testing.T) {
	fat := conf.DefaultShuffle()
	thin := conf.DefaultShuffle()
	thin.ContainersPerNode = 4
	a := run(t, workload.WordCount(), fat, 5)
	b := run(t, workload.WordCount(), thin, 5)
	if b.Aborted || b.RuntimeSec >= a.RuntimeSec {
		t.Fatalf("thin containers should speed WordCount up: %v vs %v", b.RuntimeSec, a.RuntimeSec)
	}
}

// Observation 1/§3.1: K-means runs out of memory with 4 containers per node.
func TestKMeansFailsOnFourContainers(t *testing.T) {
	cfg := conf.Default()
	cfg.ContainersPerNode = 4
	aborts := 0
	for seed := uint64(0); seed < 6; seed++ {
		r := run(t, workload.KMeans(), cfg, seed)
		if r.Aborted {
			aborts++
		}
	}
	if aborts < 3 {
		t.Fatalf("K-means at n=4 should usually abort; got %d/6", aborts)
	}
}

// Observation 2: the default PageRank setup is unreliable — container
// failures and occasional job aborts.
func TestPageRankDefaultUnreliable(t *testing.T) {
	failures, aborts := 0, 0
	for seed := uint64(0); seed < 6; seed++ {
		r := run(t, workload.PageRank(), conf.Default(), seed)
		failures += r.ContainerFailures
		if r.Aborted {
			aborts++
		}
	}
	if failures == 0 {
		t.Fatal("default PageRank should see container failures")
	}
	if aborts == 0 {
		t.Fatal("default PageRank should abort on some runs")
	}
	if aborts == 6 {
		t.Fatal("default PageRank should complete on some runs")
	}
}

// §3.5 row 2: Task Concurrency 1 makes PageRank reliable.
func TestPageRankConcurrencyOneReliable(t *testing.T) {
	cfg := conf.Default()
	cfg.TaskConcurrency = 1
	for seed := uint64(0); seed < 5; seed++ {
		if r := run(t, workload.PageRank(), cfg, seed); r.Aborted {
			t.Fatalf("seed %d: p=1 PageRank aborted", seed)
		}
	}
}

// Observation 4: SVM's cache fits fully once capacity reaches ~0.5.
func TestSVMCacheFitsAtHalf(t *testing.T) {
	cfg := conf.Default()
	cfg.CacheCapacity = 0.55
	r := run(t, workload.SVM(), cfg, 3)
	if r.CacheHitRatio < 0.99 {
		t.Fatalf("SVM hit ratio = %v at capacity 0.55", r.CacheHitRatio)
	}
	low := conf.Default()
	low.CacheCapacity = 0.2
	r2 := run(t, workload.SVM(), low, 3)
	if r2.CacheHitRatio >= 0.95 {
		t.Fatalf("SVM hit ratio = %v at capacity 0.2, expected misses", r2.CacheHitRatio)
	}
}

// §3.3: more shuffle memory degrades SortByKey (GC pressure).
func TestShuffleMemoryHurtsSortByKey(t *testing.T) {
	lean := conf.DefaultShuffle()
	lean.ShuffleCapacity = 0.2
	greedy := conf.DefaultShuffle()
	greedy.ShuffleCapacity = 0.6
	a := run(t, workload.SortByKey(), lean, 9)
	b := run(t, workload.SortByKey(), greedy, 9)
	if b.GCOverhead <= a.GCOverhead {
		t.Fatalf("more shuffle memory must raise GC overhead: %v vs %v", b.GCOverhead, a.GCOverhead)
	}
	if b.RuntimeSec <= a.RuntimeSec {
		t.Fatalf("more shuffle memory should slow SortByKey: %v vs %v", b.RuntimeSec, a.RuntimeSec)
	}
}

// Observation 5: Old smaller than Cache Storage causes huge GC overheads.
func TestOldSmallerThanCacheThrashes(t *testing.T) {
	small := conf.Default() // cache 0.6
	small.NewRatio = 1      // Old = 50% < cache+code
	big := conf.Default()
	big.NewRatio = 3
	a := run(t, workload.KMeans(), small, 11)
	b := run(t, workload.KMeans(), big, 11)
	if a.GCOverhead <= b.GCOverhead {
		t.Fatalf("NR=1 must thrash vs NR=3: %v vs %v", a.GCOverhead, b.GCOverhead)
	}
	if a.GCOverhead < 0.3 {
		t.Fatalf("thrashing GC overhead = %v, expected large", a.GCOverhead)
	}
}

func TestSpillFractionAppearsWhenStarved(t *testing.T) {
	cfg := conf.DefaultShuffle()
	cfg.ShuffleCapacity = 0.05
	r := run(t, workload.SortByKey(), cfg, 13)
	if r.SpillFraction <= 0 {
		t.Fatal("starved shuffle memory must spill")
	}
	roomy := conf.DefaultShuffle()
	roomy.ShuffleCapacity = 0.7
	r2 := run(t, workload.SortByKey(), roomy, 13)
	if r2.SpillFraction != 0 {
		t.Fatalf("roomy shuffle memory should not spill, S=%v", r2.SpillFraction)
	}
}

func TestProfileStatsConsistency(t *testing.T) {
	_, prof := Run(cluster.A(), workload.PageRank(), conf.Default(), 17)
	if prof.Duration <= 0 {
		t.Fatal("profile duration")
	}
	for _, c := range prof.Containers {
		if c.FirstTaskHeapMB <= 0 {
			t.Fatal("code overhead missing")
		}
		if c.HeapUsed.Max() > c.HeapCapMB+1 {
			t.Fatal("heap timeline exceeds capacity")
		}
	}
}

// Property: the engine never panics or returns nonsense for random legal
// configurations.
func TestRunSanityProperty(t *testing.T) {
	wls := workload.Benchmarks()
	f := func(n, p, nr uint8, cap float64, wi uint8, seed uint16) bool {
		wl := wls[int(wi)%len(wls)]
		capacity := math.Mod(math.Abs(cap), 0.9)
		if math.IsNaN(capacity) {
			capacity = 0.5
		}
		cfg := conf.Config{
			ContainersPerNode: int(n%4) + 1,
			TaskConcurrency:   int(p%8) + 1,
			CacheCapacity:     capacity * 0.5,
			ShuffleCapacity:   capacity * 0.4,
			NewRatio:          int(nr%9) + 1,
			SurvivorRatio:     8,
		}
		r, prof := Run(cluster.A(), wl, cfg, uint64(seed))
		if r.RuntimeSec <= 0 || math.IsNaN(r.RuntimeSec) || math.IsInf(r.RuntimeSec, 0) {
			return false
		}
		return prof != nil && prof.Duration > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// The containers of a run share one recorded series per timeline. They are
// read-only views, capacity-clipped so that appending to one copies: without
// the clip, two containers' appends would land in the same spare slot. An
// aborted run is the case that has spare slots: it stops short of the waves
// the series were sized for.
func TestContainersShareReadOnlyTimelines(t *testing.T) {
	cfg := conf.Default()
	cfg.ContainersPerNode = 4
	var prof *profile.Profile
	for seed := uint64(0); prof == nil || !prof.Aborted; seed++ {
		if seed == 6 {
			t.Fatal("K-means at n=4 did not abort on any seed")
		}
		_, prof = Run(cluster.A(), workload.KMeans(), cfg, seed)
	}
	timelines := func(c *profile.ContainerProfile) []*profile.Timeline {
		return []*profile.Timeline{&c.HeapUsed, &c.OldUsed, &c.RSS, &c.CacheUsed, &c.ShuffleUsed}
	}
	a, b, c := timelines(prof.Containers[0]), timelines(prof.Containers[1]), timelines(prof.Containers[2])
	for i := range a {
		ta, tb, tc := a[i], b[i], c[i]
		n, peak := len(*tc), tc.Max()
		if n == 0 || &(*ta)[0] != &(*tb)[0] || &(*ta)[0] != &(*tc)[0] {
			t.Fatalf("timeline %d: containers do not share their samples", i)
		}
		ta.Append(1e9, 1e9)
		tb.Append(2e9, 7)
		if (*ta)[n] != (profile.Sample{T: 1e9, V: 1e9}) || (*tb)[n] != (profile.Sample{T: 2e9, V: 7}) {
			t.Fatalf("timeline %d: appends on two containers collided: %v, %v", i, (*ta)[n], (*tb)[n])
		}
		if len(*tc) != n || tc.Max() != peak {
			t.Fatalf("timeline %d: Append on containers 0 and 1 reached container 2", i)
		}
	}
}

// Generate reads the shuffle level at a full GC from the event; it must be
// the value the shuffle timeline holds at that instant.
func TestShuffleAtGCMatchesTimeline(t *testing.T) {
	for _, wl := range workload.Benchmarks() {
		_, prof := Run(cluster.A(), wl, conf.DefaultShuffle(), 3)
		for _, c := range prof.Containers {
			for _, g := range c.GCEvents {
				if want := c.ShuffleUsed.At(g.T); g.ShuffleAtGC != want {
					t.Fatalf("%s: ShuffleAtGC = %v at t=%v, timeline says %v", wl.Name, g.ShuffleAtGC, g.T, want)
				}
			}
		}
	}
}
