// Package jvm models the memory behaviour of a HotSpot-style JVM running
// ParallelGC, at the granularity the paper's analysis needs: generational
// pool sizing from NewRatio and SurvivorRatio, young and full collection
// triggering, stop-the-world pause costs, promotion of long-lived data to
// the Old generation, and the growth of native (off-heap) memory between
// collections that drives the container's resident set size.
//
// The model is analytic rather than object-level: the execution engine
// describes a *wave* of work (allocation volume, live working set, data to
// promote, spill pattern) and the heap answers with the garbage collections
// that wave induces and their cost. This is exactly the level at which the
// paper reasons (Observations 5, 6 and 7 in §3.4).
package jvm

import (
	"fmt"
	"math"
)

// Layout gives the generational pool capacities for a heap configured with
// a given NewRatio and SurvivorRatio.
type Layout struct {
	HeapMB        float64
	NewRatio      int // Old:Young capacity ratio
	SurvivorRatio int // Eden:Survivor capacity ratio
}

// Old returns the Old-generation capacity: heap · NR/(NR+1).
func (l Layout) Old() float64 {
	return l.HeapMB * float64(l.NewRatio) / float64(l.NewRatio+1)
}

// Young returns the Young-generation capacity: heap / (NR+1).
func (l Layout) Young() float64 {
	return l.HeapMB / float64(l.NewRatio+1)
}

// Eden returns the Eden capacity within Young. ParallelGC splits Young into
// one Eden and two Survivor spaces with Eden = SR·Survivor, so
// Eden = Young·SR/(SR+2).
func (l Layout) Eden() float64 {
	sr := float64(l.SurvivorRatio)
	return l.Young() * sr / (sr + 2)
}

// Survivor returns the capacity of one survivor space.
func (l Layout) Survivor() float64 {
	return l.Young() / (float64(l.SurvivorRatio) + 2)
}

// Validate reports structural problems with the layout.
func (l Layout) Validate() error {
	if l.HeapMB <= 0 {
		return fmt.Errorf("jvm: non-positive heap %.1fMB", l.HeapMB)
	}
	if l.NewRatio < 1 {
		return fmt.Errorf("jvm: NewRatio %d < 1", l.NewRatio)
	}
	if l.SurvivorRatio < 1 {
		return fmt.Errorf("jvm: SurvivorRatio %d < 1", l.SurvivorRatio)
	}
	return nil
}

// CostModel holds the pause-time coefficients of the collector. The defaults
// approximate ParallelGC on the paper's Cluster A hardware; the absolute
// values matter less than their ratios (full collections are an order of
// magnitude more expensive than young ones per live byte, because they scan
// and compact the Old generation).
type CostModel struct {
	YoungBase    float64 // fixed cost of a young GC, seconds
	YoungPerMB   float64 // cost per MB of live young data copied, seconds
	FullBase     float64 // fixed cost of a full GC, seconds
	FullPerMB    float64 // cost per MB of live heap scanned+compacted, seconds
	NativeBaseMB float64 // constant JVM off-heap overhead (metaspace, stacks)
}

// DefaultCostModel returns coefficients calibrated so that the paper's
// headline overheads reproduce: tasks spending >50% of their time in GC when
// Old is undersized versus cache, and young-GC overheads of a few percent in
// well-sized configurations.
func DefaultCostModel() CostModel {
	return CostModel{
		YoungBase:    0.015,
		YoungPerMB:   0.00025,
		FullBase:     0.12,
		FullPerMB:    0.0015,
		NativeBaseMB: 120,
	}
}

// WaveLoad describes the heap work done by one wave of task execution inside
// a container, as the execution engine sees it.
type WaveLoad struct {
	// Duration is the pure compute+IO time of the wave (seconds), before GC
	// pauses are added.
	Duration float64
	// AllocMB is the total transient allocation volume of the wave.
	AllocMB float64
	// LiveShortMB is the concurrently live short-lived working set
	// (task-unmanaged data plus in-flight shuffle buffers of all slots).
	LiveShortMB float64
	// PromoteMB is data the wave tenures to the Old generation and that
	// stays live afterwards (cached partitions being unrolled).
	PromoteMB float64
	// LongLivedMB is the total long-term residency the application intends
	// (code overhead plus its cache storage target). When it exceeds the
	// Old capacity, young collections keep finding an almost-full Old
	// generation and escalate to full collections (Observation 5).
	LongLivedMB float64
	// Spills is the number of shuffle batches processed by the wave and
	// SpillBatchMB the size of each per-task batch. Batches larger than
	// half of a task's Eden share survive young collections and force
	// full collections (Observation 7).
	Spills       int
	SpillBatchMB float64
	// NativeRateMBps is the rate at which native byte buffers (network
	// fetches) accumulate off-heap; they are only released when garbage
	// collections run the reference processing that frees them
	// (Observation 6).
	NativeRateMBps float64
	// Tasks is the number of concurrently running tasks in the wave.
	Tasks int
}

// WaveResult is the collector's answer for one wave.
type WaveResult struct {
	YoungGCs     int
	FullGCs      int
	PauseSec     float64 // total stop-the-world time of the wave
	PeakHeap     float64 // peak heap occupancy during the wave, MB
	PeakRSS      float64 // peak resident set size, MB
	NativePeakMB float64 // peak native-buffer backlog, MB
	GCEvery      float64 // mean interval between effective collections, sec
	OldAfter     float64 // Old occupancy after the wave
	Promoted     float64 // MB actually promoted (capped by Old capacity)
	ChurnFull    bool    // true when Old thrashes under the long-lived data
	EscFraction  float64 // fraction of young GCs escalated by Old pressure
}

// Heap is the mutable per-container heap state across an application run.
type Heap struct {
	Layout Layout
	Cost   CostModel

	// OldUsedMB is the long-lived data tenured so far: code overhead plus
	// the cached partitions that have been unrolled.
	OldUsedMB float64

	// transientOldMB is short-lived data that overflowed the survivor space
	// during young collections and was prematurely tenured. It is garbage
	// from the application's point of view but occupies Old until a full
	// collection cleans it — the mechanism by which even non-caching
	// workloads eventually see full GCs.
	transientOldMB float64
}

// New returns a heap with the given layout and cost model.
func New(layout Layout, cost CostModel) *Heap {
	return &Heap{Layout: layout, Cost: cost}
}

// Tenure adds long-lived data (e.g. application code objects at JVM start)
// directly to the Old generation, capped at its capacity.
func (h *Heap) Tenure(mb float64) {
	h.OldUsedMB += mb
	if cap := h.Layout.Old(); h.OldUsedMB > cap {
		h.OldUsedMB = cap
	}
}

// survivorOverflowFraction is the share of the survivor-overflowing live set
// prematurely tenured at each young collection.
const survivorOverflowFraction = 0.15

// SimulateWave runs one execution wave against the heap and returns the
// collections it induces. The heap's Old occupancy is advanced by the
// promoted data.
func (h *Heap) SimulateWave(load WaveLoad) WaveResult {
	var res WaveResult
	if load.Duration <= 0 {
		load.Duration = 1e-3
	}
	eden := h.Layout.Eden()
	oldCap := h.Layout.Old()
	survivor := h.Layout.Survivor()

	// Live short-term data beyond Eden is continuously promoted and churned;
	// Eden never collects at less than ~40% of its capacity free, because
	// the overflow migrates to Old rather than pinning Eden.
	liveInYoung := math.Min(load.LiveShortMB, eden*0.95)
	freeEden := eden - liveInYoung
	if floor := eden * 0.4; freeEden < floor {
		freeEden = floor
	}

	// --- Young collections driven by allocation volume. ---
	youngGCs := 0
	if load.AllocMB > 0 {
		youngGCs = int(math.Ceil(load.AllocMB / freeEden))
	}

	// --- Full collections. ---
	fullGCs := 0

	// (a) Promotion pressure: cached data unrolled during the wave tenures
	// into Old; promotions beyond the free Old space churn — every attempt
	// triggers a full GC that reclaims none of the long-lived data
	// (Observation 5).
	oldFree := oldCap - h.OldUsedMB
	promote := load.PromoteMB
	if promote > oldFree {
		overflow := promote - math.Max(0, oldFree)
		churn := int(math.Ceil(overflow / math.Max(1, eden)))
		fullGCs += churn
		res.ChurnFull = churn > 0
		promote = math.Max(0, oldFree)
	}
	if promote > 0 && (h.OldUsedMB+promote)/oldCap > 0.85 {
		// Tenuring into a nearly-full Old triggers compacting collections;
		// comfortable promotions ride along with young collections.
		fullGCs += int(math.Ceil(promote / math.Max(oldCap*0.5, 1)))
	}
	h.OldUsedMB += promote
	res.Promoted = promote

	// (b) Old-generation pressure: the long-lived residency plus the part of
	// the live working set that does not fit in Young must reside in Old.
	// As this effective long-lived footprint approaches the Old capacity, a
	// graded fraction of young collections escalate to full collections,
	// reaching all of them past the thrash point (Observation 5's >50%
	// GC-overhead regime).
	esc := 0.0
	overflowLong := 0.0
	if oldCap > 0 {
		// Half of the young-overflowing working set is churning through Old
		// at any time (the other half is in flight through Eden/Survivor).
		effLong := load.LongLivedMB + 0.5*math.Max(0, load.LiveShortMB-h.Layout.Young())
		if fill := effLong / oldCap; fill > 0.90 {
			esc = math.Min(1, (fill-0.90)/0.15)
		}
		overflowLong = math.Max(0, effLong-oldCap)
	}
	if esc > 0 {
		n := int(math.Round(esc * float64(youngGCs)))
		// Long-lived data that permanently exceeds Old keeps re-promoting
		// through the survivor space: each escalated collection multiplies
		// into several full collections proportional to the overflow.
		perGC := 1
		if overflowLong > 0 {
			perGC += int(overflowLong / math.Max(survivor, 1))
			if perGC > 6 {
				perGC = 6
			}
		}
		fullGCs += n * perGC
		youngGCs -= n
		if esc >= 0.8 {
			res.ChurnFull = true
		}
	}
	res.EscFraction = esc

	// (c) Spill/batch-triggered full collections: a shuffle batch larger
	// than half of the per-task Eden share cannot be reclaimed young — the
	// surplus thrashes through the survivor space and forces full
	// collections proportional to the overflow (Observation 7).
	if load.Spills > 0 && load.Tasks > 0 && load.SpillBatchMB > 0 {
		edenPerTask := eden / float64(load.Tasks)
		if overflow := load.SpillBatchMB - 0.5*edenPerTask; overflow > 0 {
			perBatch := int(math.Ceil(overflow / math.Max(survivor, 1)))
			if perBatch > 12 {
				perBatch = 12
			}
			fullGCs += load.Spills * perBatch
		}
	}

	// (d) Survivor overflow: a live short-term working set larger than one
	// survivor space is partially tenured at every young collection. The
	// prematurely tenured garbage accumulates in Old until a full collection
	// cleans it — the reason even shuffle-free, cache-free workloads see
	// occasional full GCs, and why smaller heaps, higher concurrency and
	// higher NewRatio make them more frequent (§4.1's profiling heuristics).
	if youngGCs > 0 {
		liveYoung := math.Min(load.LiveShortMB, eden)
		overflowPerGC := survivorOverflowFraction * math.Max(0, liveYoung-survivor)
		h.transientOldMB += overflowPerGC * float64(youngGCs)
		headroom := math.Max(oldCap*0.9-h.OldUsedMB, eden)
		if n := int(h.transientOldMB / headroom); n > 0 {
			fullGCs += n
			h.transientOldMB -= float64(n) * headroom
		}
	}

	// --- Pause accounting. ---
	liveYoungAtGC := math.Min(load.LiveShortMB, eden)
	youngPause := h.Cost.YoungBase + h.Cost.YoungPerMB*liveYoungAtGC
	liveHeap := h.OldUsedMB + liveYoungAtGC
	fullPause := h.Cost.FullBase + h.Cost.FullPerMB*liveHeap
	res.YoungGCs = youngGCs
	res.FullGCs = fullGCs
	res.PauseSec = float64(youngGCs)*youngPause + float64(fullGCs)*fullPause

	// --- Peaks. ---
	res.PeakHeap = math.Min(h.Layout.HeapMB, h.OldUsedMB+h.transientOldMB+liveInYoung+freeEden)
	res.OldAfter = h.OldUsedMB

	// --- RSS: native buffers accumulate between effective collections.
	// Young collections only release the references that died young, so they
	// count at half weight against the native backlog (Observation 6: a
	// lower NewRatio means a larger, less frequently collected Young and a
	// faster-growing resident set).
	effective := 0.5*float64(youngGCs) + float64(fullGCs)
	res.GCEvery = load.Duration / (effective + 1)
	res.NativePeakMB = load.NativeRateMBps * res.GCEvery
	// The constant off-heap overhead (metaspace, code cache, GC structures,
	// thread stacks) scales mildly with the heap.
	res.PeakRSS = h.Layout.HeapMB + h.Cost.NativeBaseMB + 0.03*h.Layout.HeapMB + res.NativePeakMB

	return res
}
