package main

import (
	"sort"

	"relm/internal/conf"
	"relm/internal/sim"
)

// heldOut is how many simulator seeds each recommendation is re-measured
// on. They are the same for every run, whatever its --seed, and no session
// draws from them: the yardstick quality is read against must not move
// between the runs being compared.
const heldOut = 5

// ratioCap bounds one session's objective ratio, so a single aborting
// recommendation cannot own the mean.
const ratioCap = 3.0

// oracle is the benchmark's quality reference: per (workload, cluster) the
// exhaustive-search optimum of §6.1 and the default configuration, both
// scored with the abort-penalty objective on the held-out seeds. It is
// built during set-up and answers "how far from the best is this
// recommendation".
type oracle struct {
	refs []comboRef
	memo map[memoKey]float64
}

type comboRef struct {
	seeds      [heldOut]uint64
	penalty    float64 // objective charged to an aborted run: 2 × worst grid runtime
	bestObj    float64
	defaultObj float64
}

type memoKey struct {
	combo int
	cfg   conf.Config
}

func newOracle() *oracle {
	o := &oracle{refs: make([]comboRef, len(combos)), memo: make(map[memoKey]float64)}
	for ci, cb := range combos {
		ref := &o.refs[ci]
		for k := range ref.seeds {
			ref.seeds[k] = 0x5eed0f7e57<<8 + uint64(ci)*7919 + uint64(k)*104729
		}
		// One pass of the whole grid on the first held-out seed ranks the
		// configurations and fixes the abort penalty.
		type scored struct {
			cfg conf.Config
			sec float64
		}
		var ok []scored
		var worst float64
		for _, cfg := range cb.sp.Grid() {
			res, _ := sim.Run(cb.cl, cb.wl, cfg, ref.seeds[0])
			worst = max(worst, res.RuntimeSec)
			if !res.Aborted {
				ok = append(ok, scored{cfg, res.RuntimeSec})
			}
		}
		ref.penalty = 2 * worst
		sort.SliceStable(ok, func(i, j int) bool { return ok[i].sec < ok[j].sec })
		// The ten fastest are then scored on every held-out seed; the best
		// mean is the optimum recommendations are compared with.
		ref.bestObj = ref.penalty
		for _, s := range ok[:min(10, len(ok))] {
			ref.bestObj = min(ref.bestObj, o.objective(ci, s.cfg))
		}
		ref.defaultObj = o.objective(ci, cb.sp.Default())
	}
	return o
}

// objective is the mean abort-penalty objective of cfg over the held-out
// seeds. Memoised: policies often recommend the same configuration.
func (o *oracle) objective(ci int, cfg conf.Config) float64 {
	key := memoKey{ci, cfg}
	if v, hit := o.memo[key]; hit {
		return v
	}
	cb, ref := combos[ci], &o.refs[ci]
	var sum float64
	for _, seed := range ref.seeds {
		res, _ := sim.Run(cb.cl, cb.wl, cfg, seed)
		if res.Aborted {
			sum += ref.penalty
		} else {
			sum += res.RuntimeSec
		}
	}
	v := sum / heldOut
	o.memo[key] = v
	return v
}

// ratio is objective(cfg) ÷ objective(exhaustive best), capped.
func (o *oracle) ratio(ci int, cfg conf.Config) float64 {
	return min(o.objective(ci, cfg)/o.refs[ci].bestObj, ratioCap)
}

func (o *oracle) defaultRatio(ci int) float64 {
	return min(o.refs[ci].defaultObj/o.refs[ci].bestObj, ratioCap)
}

// quality scores every n-th session's recommendation (by plan index, so the
// sample is the same on every run of a seed) and returns the objective
// ratios grouped by policy.
func (o *oracle) quality(recs []sessionRec, every int) map[string][]float64 {
	out := make(map[string][]float64)
	for i := range recs {
		r := &recs[i]
		if every > 1 && r.plan.Index%every != 0 {
			continue
		}
		out[r.plan.Backend] = append(out[r.plan.Backend], o.ratio(r.plan.Combo, r.recommended))
	}
	return out
}
