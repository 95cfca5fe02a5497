// Package core implements RelM, the paper's white-box memory autotuner
// (§4). RelM processes a single application profile into the Table 6
// statistics, enumerates the feasible container sizes, initializes every
// memory pool independently with the analytical models of §4.2 (Equations
// 1–4), arbitrates the pools for safety and low GC overheads with
// Algorithm 1 (§4.3), and ranks the candidates by a memory-utility score.
//
// RelM's objectives, in priority order:
//
//  1. Safety: resource usage within allocation at all times.
//  2. High task concurrency / high cache hit ratio (proportionally fair).
//  3. Low GC overheads.
package core

import (
	"fmt"
	"math"

	"relm/internal/conf"
	"relm/internal/profile"
	"relm/internal/sim/cluster"
	"relm/internal/units"
)

// Options configures the tuner.
type Options struct {
	// Delta is the safety factor δ: the fraction of memory kept unassigned
	// as a guard against out-of-memory errors. The paper uses 0.1.
	Delta float64
	// MaxNewRatio caps NewRatio (the paper uses 9 so Young keeps ≥10% of
	// heap).
	MaxNewRatio int
	// SurvivorRatio is kept at the JVM default.
	SurvivorRatio int
	// MaxContainers bounds the container-size enumeration.
	MaxContainers int
}

// DefaultOptions returns the paper's settings.
func DefaultOptions() Options {
	return Options{Delta: 0.1, MaxNewRatio: 9, SurvivorRatio: 8, MaxContainers: 4}
}

// Tuner is the RelM tuner for one cluster.
type Tuner struct {
	Cluster cluster.Spec
	Opts    Options
}

// New returns a RelM tuner with default options.
func New(cl cluster.Spec) *Tuner {
	return &Tuner{Cluster: cl, Opts: DefaultOptions()}
}

// Pools is an absolute-MB view of a candidate's memory pools.
type Pools struct {
	HeapMB   float64
	McMB     float64 // Cache Storage
	MsMB     float64 // per-task Task Shuffle
	MoMB     float64 // Old generation
	MeMB     float64 // Eden
	P        int     // Task Concurrency
	NewRatio int
}

// Step records one Arbitrator action for the working-example trace
// (Figure 13).
type Step struct {
	Action string // "init", "p--", "mc-=Mu", "mo+=Mu", "final"
	Pools  Pools
}

// Candidate is the arbitrated configuration for one container size.
type Candidate struct {
	Containers int
	Config     conf.Config
	Pools      Pools
	Utility    float64
	Feasible   bool
	Trace      []Step
}

// Initialize applies the §4.2 analytical models (Equations 1–4) for a
// candidate container size: Cache Storage scaled by the hit ratio, Task
// Shuffle scaled by the spillage fraction, GC pools sized to hold the
// long-term requirements, and Task Concurrency bounded by each of the CPU,
// disk and memory bottlenecks.
func (t *Tuner) Initialize(st profile.Stats, n int) Pools {
	delta := t.Opts.Delta
	mh := t.Cluster.HeapPerContainer(n)

	// Eq 1: cache storage requirement, scaled by the observed hit ratio.
	mc := 0.0
	if st.McMB > 0 {
		frac := st.McMB / (math.Max(st.H, 1e-6) * st.MhMB)
		mc = mh * math.Min(frac, 1-delta)
	}

	// Eq 2: shuffle memory per task, scaled by the spillage fraction.
	ms := 0.0
	if st.MsMB > 0 {
		p := float64(max(st.P, 1))
		ms = math.Min(st.MsMB/(1-st.S/p), (1-delta)*mh)
	}

	// Eq 3: GC pools — Old must hold the long-term requirements.
	nr := t.newRatioFor(st.MiMB, mc, mh)
	mo, me := t.gcPools(mh, nr)

	// Eq 4: task concurrency from the CPU, disk and memory bottlenecks,
	// assuming linear scaling of per-task usage.
	p := t.concurrencyFor(st, n, mh)

	return Pools{HeapMB: mh, McMB: mc, MsMB: ms, MoMB: mo, MeMB: me, P: p, NewRatio: nr}
}

// newRatioFor sizes NewRatio so Old just covers the long-term pools (Eq 3).
func (t *Tuner) newRatioFor(mi, mc, mh float64) int {
	den := mh - mi - mc
	if den <= 0 {
		return t.Opts.MaxNewRatio
	}
	nr := int(math.Ceil((mi + mc) / den))
	return units.ClampInt(nr, 1, t.Opts.MaxNewRatio)
}

// gcPools returns (Old, Eden) capacities for a NewRatio using the paper's
// Eq 3 (with the (SR−2)/SR Eden approximation).
func (t *Tuner) gcPools(mh float64, nr int) (mo, me float64) {
	sr := float64(t.Opts.SurvivorRatio)
	mo = mh * float64(nr) / float64(nr+1)
	me = mh * (1 / float64(nr+1)) * (sr - 2) / sr
	return mo, me
}

// concurrencyFor is Eq 4.
func (t *Tuner) concurrencyFor(st profile.Stats, n int, mh float64) int {
	delta := t.Opts.Delta
	pProf := float64(max(st.P, 1))
	perTaskCPU := st.CPUAvg / pProf
	perTaskDisk := st.DiskAvg / pProf

	pCPU := math.Inf(1)
	if perTaskCPU > 0 {
		pCPU = (1 - delta) / (float64(n) * perTaskCPU)
	}
	pDisk := math.Inf(1)
	if perTaskDisk > 0 {
		pDisk = (1 - delta) / (float64(n) * perTaskDisk)
	}
	pMem := math.Inf(1)
	if st.MuMB > 0 {
		pMem = (1 - delta) * mh / st.MuMB
	}
	p := int(math.Min(pCPU, math.Min(pDisk, pMem)))
	maxP := t.Cluster.MaxConcurrencyPerContainer(n)
	return units.ClampInt(p, 1, maxP)
}

// maxArbitrationSteps bounds Algorithm 1's repair loop: action II shrinks the
// cache by one task's memory per round — thousands of rounds for a measured
// profile, no bound for client-reported statistics with a vanishing MuMB.
const maxArbitrationSteps = 1 << 16

// Arbitrate is Algorithm 1: it repairs an initialized candidate for safety
// (the long-term plus tenured task memory must fit in Old) by round-robin
// application of three actions — decrease Task Concurrency, decrease Cache
// Capacity (re-fitting the GC pools), and grow Old — then bounds the shuffle
// memory by half of the per-task Eden share (Observation 7) and computes the
// memory-utility score.
func (t *Tuner) Arbitrate(st profile.Stats, pools Pools) (Candidate, bool) {
	delta := t.Opts.Delta
	mh := pools.HeapMB
	cand := Candidate{Pools: pools}
	cand.Trace = append(cand.Trace, Step{Action: "init", Pools: pools})

	// Line 1: bare minimum — one task must fit.
	if st.MiMB+st.MuMB > (1-delta)*mh {
		return cand, false
	}

	demand := func() float64 { return st.MiMB + float64(pools.P)*st.MuMB + pools.McMB }
	action := 0
	blocked := 0
	for demand() > pools.MoMB {
		if action >= maxArbitrationSteps {
			return cand, false
		}
		applied := false
		switch action % 3 {
		case 0: // I: decrease task concurrency
			if pools.P > 1 {
				pools.P--
				applied = true
				cand.Trace = append(cand.Trace, Step{Action: "p--", Pools: pools})
			}
		case 1: // II: reduce cache, re-fit GC pools to the new long-term size
			if pools.McMB-st.MuMB > 0 {
				pools.McMB -= st.MuMB
				pools.NewRatio = t.newRatioFor(st.MiMB, pools.McMB, mh)
				pools.MoMB, pools.MeMB = t.gcPools(mh, pools.NewRatio)
				applied = true
				cand.Trace = append(cand.Trace, Step{Action: "mc-=Mu", Pools: pools})
			}
		case 2: // III: grow Old (trading GC overhead for safety, Obs 6)
			if pools.MoMB+st.MuMB < (1-delta)*mh {
				mo := pools.MoMB + st.MuMB
				nr := int(math.Round(mo / (mh - mo)))
				nr = units.ClampInt(nr, 1, t.Opts.MaxNewRatio)
				if mo2, _ := t.gcPools(mh, nr); mo2 > pools.MoMB {
					pools.NewRatio = nr
					pools.MoMB, pools.MeMB = t.gcPools(mh, pools.NewRatio)
					applied = true
					cand.Trace = append(cand.Trace, Step{Action: "mo+=Mu", Pools: pools})
				}
			}
		}
		action++
		if applied {
			blocked = 0
		} else if blocked++; blocked >= 3 {
			// All three actions exhausted without reaching safety: this
			// container size cannot hold the workload reliably.
			return cand, false
		}
	}

	// Line 11: bound shuffle memory by half the per-task Eden share.
	pools.MsMB = math.Min(pools.MsMB, 0.5*pools.MeMB/float64(max(pools.P, 1)))

	// Line 13: utility — fraction of heap put to productive use.
	cand.Pools = pools
	cand.Utility = (st.MiMB + pools.McMB + float64(pools.P)*(st.MuMB+pools.MsMB)) / mh
	cand.Trace = append(cand.Trace, Step{Action: "final", Pools: pools})
	return cand, true
}

// Recommend runs the full §4 pipeline — Enumerator over container sizes,
// Initializer, Arbitrator, Selector — and returns the best configuration
// with all ranked candidates.
func (t *Tuner) Recommend(st profile.Stats) (conf.Config, []Candidate, error) {
	var cands []Candidate
	for n := 1; n <= t.Opts.MaxContainers; n++ {
		pools := t.Initialize(st, n)
		cand, ok := t.Arbitrate(st, pools)
		cand.Containers = n
		cand.Feasible = ok
		cand.Config = t.configFrom(n, cand.Pools)
		cands = append(cands, cand)
	}
	bestIdx := -1
	for i, c := range cands {
		if !c.Feasible {
			continue
		}
		if bestIdx < 0 || c.Utility > cands[bestIdx].Utility {
			bestIdx = i
		}
	}
	if bestIdx < 0 {
		return conf.Config{}, cands, fmt.Errorf("relm: no feasible configuration (insufficient memory for one task)")
	}
	return cands[bestIdx].Config, cands, nil
}

// configFrom converts arbitrated pools to the framework's knob space.
func (t *Tuner) configFrom(n int, p Pools) conf.Config {
	mh := p.HeapMB
	cacheFrac := 0.0
	if p.McMB > 0 {
		cacheFrac = round2(p.McMB / mh)
	}
	shuffleFrac := 0.0
	if p.MsMB > 0 {
		shuffleFrac = round2(float64(p.P) * p.MsMB / mh)
	}
	return conf.Config{
		ContainersPerNode: n,
		TaskConcurrency:   p.P,
		CacheCapacity:     cacheFrac,
		ShuffleCapacity:   shuffleFrac,
		NewRatio:          p.NewRatio,
		SurvivorRatio:     t.Opts.SurvivorRatio,
	}
}

func round2(v float64) float64 { return math.Round(v*100) / 100 }
