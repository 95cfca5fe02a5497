package profile

import (
	"math"
	"testing"

	"relm/internal/conf"
)

func TestTimelineMaxAtMean(t *testing.T) {
	var tl Timeline
	tl.Append(0, 10)
	tl.Append(10, 30)
	tl.Append(20, 20)
	if tl.Max() != 30 {
		t.Fatalf("Max = %v", tl.Max())
	}
	if tl.At(5) != 10 || tl.At(10) != 30 || tl.At(15) != 30 || tl.At(25) != 20 {
		t.Fatal("At wrong")
	}
	// Time-weighted mean over [0,20]: 10 for 10s, 30 for 10s → 20.
	if m := tl.Mean(); math.Abs(m-20) > 1e-9 {
		t.Fatalf("Mean = %v", m)
	}
}

func TestTimelineEdgeCases(t *testing.T) {
	var empty Timeline
	if empty.Max() != 0 || empty.Mean() != 0 || empty.At(5) != 0 {
		t.Fatal("empty timeline should yield zeros")
	}
	one := Timeline{{T: 0, V: 7}}
	if one.Mean() != 7 {
		t.Fatal("single-sample mean should be the value")
	}
}

func TestHitRatioAndSpill(t *testing.T) {
	p := &Profile{CacheHits: 3, CacheRequests: 10, SpilledMB: 25, ShuffledMB: 100}
	if p.HitRatio() != 0.3 {
		t.Fatalf("H = %v", p.HitRatio())
	}
	if p.SpillFraction() != 0.25 {
		t.Fatalf("S = %v", p.SpillFraction())
	}
	// No cache requests → H = 1 (nothing missed).
	if (&Profile{}).HitRatio() != 1 {
		t.Fatal("no-cache H should be 1")
	}
	if (&Profile{}).SpillFraction() != 0 {
		t.Fatal("no-shuffle S should be 0")
	}
	// Spill fraction is capped at 1.
	over := &Profile{SpilledMB: 200, ShuffledMB: 100}
	if over.SpillFraction() != 1 {
		t.Fatal("S must cap at 1")
	}
}

func TestMaxHeapUtilization(t *testing.T) {
	c := &ContainerProfile{HeapCapMB: 100}
	c.HeapUsed.Append(0, 40)
	c.HeapUsed.Append(1, 80)
	p := &Profile{Containers: []*ContainerProfile{c}}
	if u := p.MaxHeapUtilization(); u != 0.8 {
		t.Fatalf("heap util = %v", u)
	}
}

func TestGCOverhead(t *testing.T) {
	p := &Profile{Waves: []TaskWave{
		{Tasks: 1, Start: 0, End: 10, GCTime: 2},
		{Tasks: 1, Start: 0, End: 10, GCTime: 4},
	}}
	if o := p.GCOverhead(); math.Abs(o-0.3) > 1e-9 {
		t.Fatalf("GC overhead = %v", o)
	}
	if (&Profile{}).GCOverhead() != 0 {
		t.Fatal("no tasks → 0")
	}
}

// buildProfile fabricates a profile with known pool values to validate the
// §4.1 statistics derivations.
func buildProfile(withFullGC bool) *Profile {
	const (
		mi    = 100.0
		cache = 1000.0
		mu    = 300.0
		shuf  = 50.0
		p     = 2
	)
	c := &ContainerProfile{HeapCapMB: 4404, FirstTaskHeapMB: mi}
	c.CacheUsed.Append(0, cache)
	c.ShuffleUsed.Append(0, float64(p)*shuf)
	c.OldUsed.Append(0, mi+cache+800) // old peak incl. transient garbage
	prof := &Profile{
		Workload:      "synthetic",
		Config:        conf.Config{ContainersPerNode: 1, TaskConcurrency: p, NewRatio: 2, SurvivorRatio: 8, CacheCapacity: 0.6},
		HeapSizeMB:    4404,
		CoresPerNode:  8,
		Containers:    []*ContainerProfile{c},
		CacheHits:     3,
		CacheRequests: 10,
	}
	if withFullGC {
		prof.GCs = []GCEvent{{T: 10, Full: true, CacheAtGC: cache, Running: p}}
		prof.Residency = []float64{mi + cache + float64(p)*(mu+shuf)}
	}
	return prof
}

func TestGenerateWithFullGC(t *testing.T) {
	st := Generate(buildProfile(true))
	if !st.HadFullGC {
		t.Fatal("full GC should be detected")
	}
	if math.Abs(st.MiMB-100) > 1 {
		t.Fatalf("Mi = %v, want 100", st.MiMB)
	}
	if math.Abs(st.McMB-1000) > 1 {
		t.Fatalf("Mc = %v, want 1000", st.McMB)
	}
	// Mu = (heapAfter − Mi − cache)/p − shuffle/p = (700)/2 − 50 = 300.
	if math.Abs(st.MuMB-300) > 1 {
		t.Fatalf("Mu = %v, want 300", st.MuMB)
	}
	if math.Abs(st.MsMB-50) > 1 {
		t.Fatalf("Ms = %v, want 50", st.MsMB)
	}
	if st.H != 0.3 {
		t.Fatalf("H = %v", st.H)
	}
}

func TestGenerateWithoutFullGCOverestimates(t *testing.T) {
	st := Generate(buildProfile(false))
	if st.HadFullGC {
		t.Fatal("no full GC expected")
	}
	// Fallback charges the whole Old peak (minus Mi) to the tasks:
	// (1900 − 100)/2 = 900, a 3× over-estimate of the true 300.
	if st.MuMB < 2*300 {
		t.Fatalf("fallback Mu = %v, expected an over-estimate", st.MuMB)
	}
}

func TestGenerateCarriesRunConfig(t *testing.T) {
	st := Generate(buildProfile(true))
	if st.N != 1 || st.P != 2 || st.MhMB != 4404 || st.CoresPerNode != 8 {
		t.Fatalf("run config not carried: %+v", st)
	}
}

func TestStatsString(t *testing.T) {
	if Generate(buildProfile(true)).String() == "" {
		t.Fatal("Stats.String empty")
	}
	p := buildProfile(true)
	if p.String() == "" {
		t.Fatal("Profile.String empty")
	}
}
