package jvm

import (
	"math"
	"testing"
	"testing/quick"
)

func defaultLayout() Layout {
	return Layout{HeapMB: 4404, NewRatio: 2, SurvivorRatio: 8}
}

func TestLayoutPartition(t *testing.T) {
	l := defaultLayout()
	if math.Abs(l.Old()+l.Young()-l.HeapMB) > 1e-9 {
		t.Fatalf("Old+Young = %v, want %v", l.Old()+l.Young(), l.HeapMB)
	}
	if math.Abs(l.Eden()+2*l.Survivor()-l.Young()) > 1e-9 {
		t.Fatal("Eden + 2·Survivor != Young")
	}
	// NewRatio=2: Old is 2/3 of heap.
	if math.Abs(l.Old()-4404.0*2/3) > 1e-9 {
		t.Fatalf("Old = %v", l.Old())
	}
	// SurvivorRatio=8: Eden = 8·Survivor.
	if math.Abs(l.Eden()-8*l.Survivor()) > 1e-9 {
		t.Fatal("Eden != 8·Survivor")
	}
}

func TestLayoutNewRatioDirection(t *testing.T) {
	lo := Layout{HeapMB: 1000, NewRatio: 1, SurvivorRatio: 8}
	hi := Layout{HeapMB: 1000, NewRatio: 8, SurvivorRatio: 8}
	if lo.Old() >= hi.Old() {
		t.Fatal("higher NewRatio must mean larger Old")
	}
	if lo.Young() <= hi.Young() {
		t.Fatal("higher NewRatio must mean smaller Young")
	}
}

// Property: pools are positive and partition the heap for all legal knobs.
func TestLayoutProperty(t *testing.T) {
	f := func(nr, sr uint8, heap uint16) bool {
		l := Layout{
			HeapMB:        float64(heap%60000) + 256,
			NewRatio:      int(nr%9) + 1,
			SurvivorRatio: int(sr%14) + 1,
		}
		if l.Validate() != nil {
			return false
		}
		ok := l.Old() > 0 && l.Young() > 0 && l.Eden() > 0 && l.Survivor() > 0
		ok = ok && math.Abs(l.Old()+l.Young()-l.HeapMB) < 1e-6
		ok = ok && math.Abs(l.Eden()+2*l.Survivor()-l.Young()) < 1e-6
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestValidate(t *testing.T) {
	bad := []Layout{
		{HeapMB: 0, NewRatio: 2, SurvivorRatio: 8},
		{HeapMB: 100, NewRatio: 0, SurvivorRatio: 8},
		{HeapMB: 100, NewRatio: 2, SurvivorRatio: 0},
	}
	for i, l := range bad {
		if l.Validate() == nil {
			t.Errorf("layout %d should be invalid", i)
		}
	}
	if defaultLayout().Validate() != nil {
		t.Error("default layout should be valid")
	}
}

func TestTenureCapsAtOld(t *testing.T) {
	h := New(defaultLayout(), DefaultCostModel())
	h.Tenure(1e9)
	if h.OldUsedMB != h.Layout.Old() {
		t.Fatalf("Tenure should cap at Old: %v vs %v", h.OldUsedMB, h.Layout.Old())
	}
}

func TestYoungGCCountScalesWithAllocation(t *testing.T) {
	h := New(defaultLayout(), DefaultCostModel())
	small := h.SimulateWave(WaveLoad{Duration: 10, AllocMB: 500, LiveShortMB: 100, Tasks: 2})
	h2 := New(defaultLayout(), DefaultCostModel())
	big := h2.SimulateWave(WaveLoad{Duration: 10, AllocMB: 5000, LiveShortMB: 100, Tasks: 2})
	if big.YoungGCs <= small.YoungGCs {
		t.Fatalf("more allocation must mean more young GCs: %d vs %d", big.YoungGCs, small.YoungGCs)
	}
}

func TestNoAllocationNoGC(t *testing.T) {
	h := New(defaultLayout(), DefaultCostModel())
	r := h.SimulateWave(WaveLoad{Duration: 10, Tasks: 1})
	if r.YoungGCs != 0 || r.FullGCs != 0 || r.PauseSec != 0 {
		t.Fatalf("idle wave should not collect: %+v", r)
	}
}

// Observation 5: long-lived data beyond Old escalates young GCs to full.
func TestOldPressureEscalation(t *testing.T) {
	h := New(defaultLayout(), DefaultCostModel())
	oldCap := h.Layout.Old()
	safe := h.SimulateWave(WaveLoad{
		Duration: 10, AllocMB: 3000, LiveShortMB: 400, Tasks: 2,
		LongLivedMB: 0.5 * oldCap,
	})
	h2 := New(defaultLayout(), DefaultCostModel())
	thrash := h2.SimulateWave(WaveLoad{
		Duration: 10, AllocMB: 3000, LiveShortMB: 400, Tasks: 2,
		LongLivedMB: 1.2 * oldCap,
	})
	if safe.EscFraction != 0 {
		t.Fatalf("no escalation expected below 90%% fill, got %v", safe.EscFraction)
	}
	if thrash.EscFraction != 1 || !thrash.ChurnFull {
		t.Fatalf("full escalation expected past the thrash point: esc=%v churn=%v", thrash.EscFraction, thrash.ChurnFull)
	}
	if thrash.FullGCs <= safe.FullGCs {
		t.Fatal("thrashing must cause more full GCs")
	}
	if thrash.PauseSec <= safe.PauseSec {
		t.Fatal("thrashing must cost more pause time")
	}
}

// Observation 7: shuffle batches beyond half the per-task Eden share force
// full collections.
func TestSpillBatchFullGCs(t *testing.T) {
	h := New(defaultLayout(), DefaultCostModel())
	eden := h.Layout.Eden()
	smallBatch := h.SimulateWave(WaveLoad{
		Duration: 10, AllocMB: 1000, LiveShortMB: 200, Tasks: 2,
		Spills: 4, SpillBatchMB: 0.2 * eden / 2,
	})
	h2 := New(defaultLayout(), DefaultCostModel())
	bigBatch := h2.SimulateWave(WaveLoad{
		Duration: 10, AllocMB: 1000, LiveShortMB: 200, Tasks: 2,
		Spills: 4, SpillBatchMB: 1.5 * eden / 2,
	})
	if smallBatch.FullGCs != 0 {
		t.Fatalf("small batches should not force full GCs, got %d", smallBatch.FullGCs)
	}
	if bigBatch.FullGCs < 4 {
		t.Fatalf("oversized batches should force at least one full GC per batch, got %d", bigBatch.FullGCs)
	}
}

// Survivor overflow: a large live working set eventually forces full GCs
// even without caching or spilling.
func TestSurvivorOverflowAccumulates(t *testing.T) {
	h := New(defaultLayout(), DefaultCostModel())
	load := WaveLoad{Duration: 10, AllocMB: 2000, LiveShortMB: 800, Tasks: 2, LongLivedMB: 100}
	total := 0
	for i := 0; i < 50; i++ {
		total += h.SimulateWave(load).FullGCs
	}
	if total == 0 {
		t.Fatal("sustained survivor overflow should eventually trigger full GCs")
	}

	// A small working set (below one survivor space) never overflows.
	h2 := New(defaultLayout(), DefaultCostModel())
	small := WaveLoad{Duration: 10, AllocMB: 500, LiveShortMB: 100, Tasks: 2, LongLivedMB: 100}
	total2 := 0
	for i := 0; i < 50; i++ {
		total2 += h2.SimulateWave(small).FullGCs
	}
	if total2 != 0 {
		t.Fatalf("small working sets should not promote: %d full GCs", total2)
	}
}

// Observation 6: fewer collections mean a larger native-buffer backlog.
func TestNativeBacklogVsGCFrequency(t *testing.T) {
	// NewRatio 2 (big young, few GCs) vs NewRatio 5 under identical load.
	mk := func(nr int) WaveResult {
		h := New(Layout{HeapMB: 4404, NewRatio: nr, SurvivorRatio: 8}, DefaultCostModel())
		h.Tenure(115)
		return h.SimulateWave(WaveLoad{
			Duration: 40, AllocMB: 1200, LiveShortMB: 1500, Tasks: 2,
			NativeRateMBps: 60,
		})
	}
	nr2, nr5 := mk(2), mk(5)
	if nr2.GCEvery <= nr5.GCEvery {
		t.Fatalf("NewRatio 2 should collect less frequently: %v vs %v", nr2.GCEvery, nr5.GCEvery)
	}
	if nr2.NativePeakMB <= nr5.NativePeakMB {
		t.Fatalf("NewRatio 2 should accumulate more native memory: %v vs %v", nr2.NativePeakMB, nr5.NativePeakMB)
	}
	if nr2.PeakRSS <= nr5.PeakRSS {
		t.Fatal("RSS ordering wrong")
	}
}

func TestPromotionCapsAtOld(t *testing.T) {
	h := New(defaultLayout(), DefaultCostModel())
	h.Tenure(100)
	r := h.SimulateWave(WaveLoad{
		Duration: 10, AllocMB: 100, LiveShortMB: 50, Tasks: 1,
		PromoteMB: 1e6, LongLivedMB: 1e6,
	})
	if h.OldUsedMB > h.Layout.Old()+1e-9 {
		t.Fatalf("Old overfilled: %v > %v", h.OldUsedMB, h.Layout.Old())
	}
	if !r.ChurnFull {
		t.Fatal("promotion far beyond Old must churn")
	}
	if r.Promoted > h.Layout.Old() {
		t.Fatal("promoted more than Old capacity")
	}
}

// Property: SimulateWave never returns negative or non-finite quantities.
func TestWaveResultSanityProperty(t *testing.T) {
	f := func(alloc, live, promote uint16, nr uint8, spills uint8) bool {
		h := New(Layout{HeapMB: 2048, NewRatio: int(nr%9) + 1, SurvivorRatio: 8}, DefaultCostModel())
		r := h.SimulateWave(WaveLoad{
			Duration:     5,
			AllocMB:      float64(alloc % 10000),
			LiveShortMB:  float64(live % 4000),
			PromoteMB:    float64(promote % 4000),
			LongLivedMB:  float64(promote % 4000),
			Spills:       int(spills % 8),
			SpillBatchMB: float64(live%1000) + 1,
			Tasks:        2,
		})
		vals := []float64{r.PauseSec, r.PeakHeap, r.PeakRSS, r.GCEvery, r.OldAfter, r.Promoted, float64(r.YoungGCs), float64(r.FullGCs)}
		for _, v := range vals {
			if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				return false
			}
		}
		return r.PeakHeap <= h.Layout.HeapMB+1e-9 && r.EscFraction >= 0 && r.EscFraction <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestFullPauseCostlierThanYoung(t *testing.T) {
	c := DefaultCostModel()
	if c.FullBase <= c.YoungBase || c.FullPerMB <= c.YoungPerMB {
		t.Fatal("full collections must cost more than young ones")
	}
}
