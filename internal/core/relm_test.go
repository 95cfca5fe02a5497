package core

import (
	"math"
	"testing"
	"testing/quick"

	"relm/internal/profile"
	"relm/internal/sim"
	"relm/internal/sim/cluster"
	"relm/internal/sim/workload"
	"relm/internal/tune"
)

// pageRankStats reproduces the Table 6 example column.
func pageRankStats() profile.Stats {
	return profile.Stats{
		N: 1, MhMB: 4404,
		CPUAvg: 0.35, DiskAvg: 0.02,
		MiMB: 115, McMB: 2300, MsMB: 0, MuMB: 770,
		P: 2, H: 0.3, S: 0,
		HadFullGC: true, CoresPerNode: 8,
	}
}

func TestInitializerMatchesPaperExample(t *testing.T) {
	// §4.2's example: PageRank on n=1, mh=4404, δ=0.1 gives mc≈3.8-4.0GB,
	// ms=0, p=5, NR=9.
	tuner := New(cluster.A())
	pools := tuner.Initialize(pageRankStats(), 1)
	if pools.HeapMB != 4404 {
		t.Fatalf("heap = %v", pools.HeapMB)
	}
	// Eq 1: mc = mh·min(Mc/(H·Mh), 1−δ) = 4404·0.9 = 3963.6 (requirement
	// exceeds the cap).
	if math.Abs(pools.McMB-3963.6) > 1 {
		t.Fatalf("mc = %v, want ≈3964", pools.McMB)
	}
	if pools.MsMB != 0 {
		t.Fatalf("ms = %v, want 0", pools.MsMB)
	}
	// Eq 4: pCPU = 0.9/(0.35/2) ≈ 5.14; pMem = 0.9·4404/770 ≈ 5.15 → p = 5.
	if pools.P != 5 {
		t.Fatalf("p = %d, want 5", pools.P)
	}
	// Eq 3: NR = ceil((115+3964)/(4404−115−3964)) = ceil(12.5) = 13 → cap 9.
	if pools.NewRatio != 9 {
		t.Fatalf("NR = %d, want 9", pools.NewRatio)
	}
}

func TestGCPoolsEquation(t *testing.T) {
	tuner := New(cluster.A())
	mo, me := tuner.gcPools(4404, 2)
	if math.Abs(mo-4404.0*2/3) > 1e-9 {
		t.Fatalf("mo = %v", mo)
	}
	// Eq 3 Eden approximation: mh/(NR+1)·(SR−2)/SR = 4404/3·0.75.
	if math.Abs(me-4404.0/3*0.75) > 1e-9 {
		t.Fatalf("me = %v", me)
	}
}

func TestShuffleEquation(t *testing.T) {
	// Eq 2: ms = Ms/(1 − S/P), capped at (1−δ)·mh.
	tuner := New(cluster.A())
	st := pageRankStats()
	st.McMB, st.H = 0, 1
	st.MsMB = 400
	st.S = 0.5
	st.P = 2
	pools := tuner.Initialize(st, 1)
	want := 400 / (1 - 0.5/2)
	if math.Abs(pools.MsMB-want) > 1 {
		t.Fatalf("ms = %v, want %v", pools.MsMB, want)
	}
}

func TestArbitratorSafetyInvariant(t *testing.T) {
	tuner := New(cluster.A())
	st := pageRankStats()
	for n := 1; n <= 4; n++ {
		pools := tuner.Initialize(st, n)
		cand, ok := tuner.Arbitrate(st, pools)
		if !ok {
			continue
		}
		got := st.MiMB + float64(cand.Pools.P)*st.MuMB + cand.Pools.McMB
		if got > cand.Pools.MoMB+1e-6 {
			t.Errorf("n=%d: safety violated: %v > mo %v", n, got, cand.Pools.MoMB)
		}
		// Shuffle memory bounded by half the per-task Eden (Obs 7).
		if cand.Pools.MsMB > 0.5*cand.Pools.MeMB/float64(cand.Pools.P)+1e-9 {
			t.Errorf("n=%d: shuffle bound violated", n)
		}
		if cand.Utility <= 0 || cand.Utility > 1.01 {
			t.Errorf("n=%d: utility %v out of range", n, cand.Utility)
		}
	}
}

func TestArbitratorTraceActions(t *testing.T) {
	tuner := New(cluster.A())
	st := pageRankStats()
	pools := tuner.Initialize(st, 1)
	cand, ok := tuner.Arbitrate(st, pools)
	if !ok {
		t.Fatal("n=1 should be feasible for PageRank")
	}
	if len(cand.Trace) < 3 {
		t.Fatal("expected several arbitration steps")
	}
	if cand.Trace[0].Action != "init" || cand.Trace[len(cand.Trace)-1].Action != "final" {
		t.Fatal("trace must start with init and end with final")
	}
	// Concurrency and cache only ever decrease through the trace.
	prevP := cand.Trace[0].Pools.P
	prevMc := cand.Trace[0].Pools.McMB
	for _, s := range cand.Trace[1:] {
		if s.Pools.P > prevP {
			t.Fatal("p increased during arbitration")
		}
		if s.Pools.McMB > prevMc+1e-9 {
			t.Fatal("mc increased during arbitration")
		}
		prevP, prevMc = s.Pools.P, s.Pools.McMB
	}
}

func TestInsufficientMemoryInfeasible(t *testing.T) {
	tuner := New(cluster.A())
	st := pageRankStats()
	st.MuMB = 5000 // a single task cannot fit in any container
	for n := 1; n <= 4; n++ {
		pools := tuner.Initialize(st, n)
		if _, ok := tuner.Arbitrate(st, pools); ok && n > 1 {
			t.Errorf("n=%d should be infeasible with Mu=5GB", n)
		}
	}
	if _, _, err := tuner.Recommend(st); err == nil {
		// n=1 (4404MB heap) may barely admit one 5000MB task — it cannot:
		// 115+5000 > 0.9·4404, so recommendation must fail entirely.
		t.Fatal("expected no feasible configuration")
	}
}

func TestRecommendPrefersHighestUtility(t *testing.T) {
	tuner := New(cluster.A())
	rec, cands, err := tuner.Recommend(pageRankStats())
	if err != nil {
		t.Fatal(err)
	}
	bestU := -1.0
	for _, c := range cands {
		if c.Feasible && c.Utility > bestU {
			bestU = c.Utility
		}
	}
	for _, c := range cands {
		if c.Config == rec && math.Abs(c.Utility-bestU) > 1e-9 {
			t.Fatal("recommendation is not the best-utility candidate")
		}
	}
}

func TestRecommendationIsSafeInSimulator(t *testing.T) {
	// The headline claim: RelM recommendations avoid out-of-memory aborts.
	cl := cluster.A()
	for _, wl := range workload.Benchmarks() {
		ev := tune.NewEvaluator(cl, wl, 21)
		tuner := New(cl)
		rec, _, err := tuner.TuneWorkload(ev)
		if err != nil {
			t.Fatalf("%s: %v", wl.Name, err)
		}
		aborts := 0
		for seed := uint64(0); seed < 4; seed++ {
			r, _ := sim.Run(cl, wl, rec, 1000+seed)
			if r.Aborted {
				aborts++
			}
		}
		if aborts > 1 {
			t.Errorf("%s: RelM recommendation aborted %d/4 runs (%v)", wl.Name, aborts, rec)
		}
	}
}

func TestRecommendationBeatsDefault(t *testing.T) {
	cl := cluster.A()
	for _, wl := range []workload.Spec{workload.WordCount(), workload.SVM(), workload.KMeans()} {
		ev := tune.NewEvaluator(cl, wl, 22)
		rec, _, err := New(cl).TuneWorkload(ev)
		if err != nil {
			t.Fatalf("%s: %v", wl.Name, err)
		}
		recRes, _ := sim.Run(cl, wl, rec, 555)
		defRes, _ := sim.Run(cl, wl, ev.Space.Default(), 555)
		if recRes.Aborted || recRes.RuntimeSec >= defRes.RuntimeSec {
			t.Errorf("%s: RelM %v not better than default %v", wl.Name, recRes.RuntimeSec, defRes.RuntimeSec)
		}
	}
}

func TestReprofileOnMissingFullGC(t *testing.T) {
	// SVM's default profile lacks full-GC events, so RelM must take a second
	// profiling run with the GC-pressure heuristics (§4.1).
	cl := cluster.A()
	ev := tune.NewEvaluator(cl, workload.SVM(), 23)
	_, _, err := New(cl).TuneWorkload(ev)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Evals() != 2 {
		t.Fatalf("SVM should need exactly 2 profiling runs, used %d", ev.Evals())
	}
	second := ev.History()[1].Config
	first := ev.History()[0].Config
	if second.ContainersPerNode <= first.ContainersPerNode &&
		second.TaskConcurrency <= first.TaskConcurrency &&
		second.NewRatio <= first.NewRatio {
		t.Fatal("re-profile must raise GC pressure")
	}
}

func TestSingleProfileForFullGCWorkloads(t *testing.T) {
	cl := cluster.A()
	ev := tune.NewEvaluator(cl, workload.PageRank(), 24)
	_, _, err := New(cl).TuneWorkload(ev)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Evals() != 1 {
		t.Fatalf("PageRank should need a single profiling run, used %d", ev.Evals())
	}
}

// Property: arbitration always terminates and never violates the safety
// condition for feasible outcomes, across randomized statistics.
func TestArbitrateProperty(t *testing.T) {
	tuner := New(cluster.A())
	f := func(mi, mc, mu uint16, h float64, p uint8, n uint8) bool {
		st := profile.Stats{
			N: 1, MhMB: 4404,
			CPUAvg: 0.3, DiskAvg: 0.05,
			MiMB: float64(mi%400) + 20,
			McMB: float64(mc % 3500),
			MuMB: float64(mu%2000) + 10,
			P:    2, H: clamp01(h),
			HadFullGC: true, CoresPerNode: 8,
		}
		if st.H < 0.05 {
			st.H = 0.05
		}
		nn := int(n%4) + 1
		pools := tuner.Initialize(st, nn)
		cand, ok := tuner.Arbitrate(st, pools)
		if !ok {
			return true // infeasible is a legal outcome
		}
		demand := st.MiMB + float64(cand.Pools.P)*st.MuMB + cand.Pools.McMB
		return demand <= cand.Pools.MoMB+1e-6 && cand.Pools.P >= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestArbitrateTerminatesOnVanishingTaskMemory: reported statistics are
// outside input. A per-task memory of next to nothing makes action II shave
// the cache by next to nothing per round; the repair loop must give up, not
// spin for 10¹⁵ rounds under the session lock.
func TestArbitrateTerminatesOnVanishingTaskMemory(t *testing.T) {
	tuner := New(cluster.A())
	st := profile.Stats{
		N: 1, MhMB: 4404, CPUAvg: 0.3, DiskAvg: 0.05,
		MiMB: 100, McMB: 4000, MuMB: 1e-12,
		P: 2, H: 0.3, HadFullGC: true, CoresPerNode: 8,
	}
	pools := tuner.Initialize(st, 1)
	pools.McMB, pools.MoMB = 4000, 2000 // unsafe by a long way, as a hostile profile can make it
	if cand, ok := tuner.Arbitrate(st, pools); ok {
		t.Fatalf("arbitration called an unrepairable candidate safe: %+v", cand.Pools)
	}
}

func clamp01(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0.5
	}
	v = math.Abs(math.Mod(v, 1))
	if v == 0 {
		return 0.5
	}
	return v
}
