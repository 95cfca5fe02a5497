// Package gbo implements Guided Bayesian Optimization (§5.2): a white-box
// model Q derived from one application profile computes three guide metrics
// for any candidate configuration — expected heap occupancy (q1), long-term
// memory efficiency (q2), and shuffle-memory efficiency (q3) (Equation 8) —
// and those metrics are appended to the Bayesian optimizer's surrogate
// features (Equation 9). The guide separates expensive regions of the
// configuration space from promising ones from the very first samples,
// which is where GBO's ~2× speedup over vanilla BO comes from (§6.5).
package gbo

import (
	"math"

	"relm/internal/bo"
	"relm/internal/conf"
	"relm/internal/profile"
	"relm/internal/sim/cluster"
	"relm/internal/tune"
)

// Model is the guiding white-box model Q.
type Model struct {
	Cluster cluster.Spec
	Stats   profile.Stats
	// Delta is the safety factor used when deriving requirements (0.1).
	Delta float64
}

// NewModel builds Q from a profile's statistics.
func NewModel(cl cluster.Spec, st profile.Stats) *Model {
	return &Model{Cluster: cl, Stats: st, Delta: 0.1}
}

// requirements returns the cache and per-task shuffle requirements under a
// candidate heap size, via the RelM initializer models (Eqs 1 and 2).
func (m *Model) requirements(mh float64) (mcReq, msReq float64) {
	st := &m.Stats
	if st.McMB > 0 {
		frac := st.McMB / (math.Max(st.H, 1e-6) * st.MhMB)
		mcReq = mh * math.Min(frac, 1-m.Delta)
	}
	if st.MsMB > 0 {
		p := float64(max(st.P, 1))
		msReq = math.Min(st.MsMB/(1-st.S/p), (1-m.Delta)*mh)
	}
	return mcReq, msReq
}

// Metrics computes q = {q1, q2, q3} for a candidate configuration
// (Equation 8).
func (m *Model) Metrics(c conf.Config) [3]float64 {
	st := &m.Stats
	mh := m.Cluster.HeapPerContainer(c.ContainersPerNode)
	mcX := c.CacheCapacity * mh
	msX := c.ShuffleCapacity * mh / float64(max(c.TaskConcurrency, 1))
	moX := mh * float64(c.NewRatio) / float64(c.NewRatio+1)
	sr := float64(c.SurvivorRatio)
	if sr < 1 {
		sr = 8
	}
	meX := mh * (1 / float64(c.NewRatio+1)) * (sr - 2) / sr
	p := float64(c.TaskConcurrency)

	mcReq, msReq := m.requirements(mh)

	// q1: expected heap occupancy — both under-utilization (low) and unsafe
	// over-commitment (above 1) are visible.
	q1 := (st.MiMB + math.Min(mcX, mcReq) + p*(st.MuMB+math.Min(msX, msReq))) / mh

	// q2: long-term memory efficiency — the long-lived requirement against
	// the storage the configuration actually provides (bounded by both the
	// Old pool and the cache capacity).
	longTermNeed := st.MiMB + mcReq
	longTermAvail := math.Min(moX, mcX+st.MiMB)
	if longTermAvail < st.MiMB {
		longTermAvail = st.MiMB
	}
	// Zero-statistics profiles (remote runtime-only observations) can leave
	// both sides at 0; keep q2 finite rather than 0/0.
	q2 := 0.0
	if longTermAvail > 0 {
		q2 = longTermNeed / longTermAvail
	} else if longTermNeed > 0 {
		q2 = 10 // nothing provided for a real need: deep in penalty range
	}

	// q3: shuffle-memory efficiency — shuffle batches beyond half of Eden
	// cause full-GC storms (Observation 7).
	q3 := p * math.Min(msX, msReq) / (0.5 * meX)

	return [3]float64{q1, q2, q3}
}

// ExtraFeatures squashes Q into surrogate features on the scale of the
// normalized knobs.
func (m *Model) ExtraFeatures(cfg conf.Config) []float64 {
	f := featuresOf(m.Metrics(cfg))
	return f[:]
}

// featuresOf squashes the metrics q into guide features.
func featuresOf(q [3]float64) [3]float64 {
	return [3]float64{squash(q[0]), squash(q[1] / 2), squash(q[2] / 2)}
}

// squash maps [0,∞) smoothly into [0,1.5) keeping the unit neighbourhood
// roughly linear.
func squash(v float64) float64 {
	if v < 0 {
		v = 0
	}
	return 1.5 * v / (1 + v/1.5)
}

// AcquisitionPenalty down-weights the acquisition value of configurations Q
// marks as unsafe (expected occupancy above capacity), memory-wasting (low
// occupancy), long-term-thrashing (q2 high) or spill-storming (q3 high) —
// the "expensive region" separation of §5.2.
func (m *Model) AcquisitionPenalty(c conf.Config) float64 { return penaltyOf(m.Metrics(c)) }

// penaltyOf is AcquisitionPenalty of a configuration with metrics q.
func penaltyOf(q [3]float64) float64 {
	p := 1.0
	switch {
	case q[0] > 1.5: // far beyond capacity: aborts likely
		p *= 0.2
	case q[0] > 1.15: // over-committed: risky
		p *= 0.7
	case q[0] < 0.45: // wasting memory
		p *= 0.6
	}
	if q[1] > 1.4 {
		p *= 0.6
	}
	if q[2] > 1.2 {
		p *= 0.7
	}
	return p
}

// Run executes guided Bayesian optimization by driving the incremental
// Tuner to completion. The guide model Q is built from the first bootstrap
// sample's profile (§5.2: the profiled statistics may come from a prior
// execution with any configuration), so GBO pays no extra profiling run
// over BO.
func Run(ev *tune.Evaluator, opts bo.Options) (bo.Result, *Model) {
	t := NewTuner(ev.Cluster, ev.Space, opts)
	tune.Drive(t, ev, 0)
	res := t.Result()
	if !res.Found {
		if best, ok := ev.Best(); ok {
			res.Best, res.Found = best, true
		}
	}
	return res, t.Model()
}
