package main

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"time"

	"relm/internal/bo"
	"relm/internal/conf"
	"relm/internal/core"
	"relm/internal/ddpg"
	"relm/internal/gbo"
	"relm/internal/obs"
	"relm/internal/stats"
	"relm/internal/tune"
)

// offlinePolicies is the order policies run in within a round.
var offlinePolicies = []string{"relm", "bo", "gbo", "ddpg"}

// newLibraryTuner builds a policy the way service.Manager.newTuner does,
// without the service. reg, when set, receives the stage histograms the
// BO family exports (a traced run).
func newLibraryTuner(backend string, cb combo, seed uint64, reg *obs.Registry) (tune.Tuner, error) {
	boOpts := bo.Options{
		Seed:                seed,
		SurrogateAppendHist: reg.Histogram("surrogate.append"),
		SurrogateRefitHist:  reg.Histogram("surrogate.refit"),
		AcquisitionHist:     reg.Histogram("acquisition"),
	}
	switch backend {
	case "relm":
		return core.New(cb.cl).Incremental(cb.sp), nil
	case "bo":
		return bo.NewTuner(cb.sp, boOpts, nil, nil), nil
	case "gbo":
		return gbo.NewTuner(cb.cl, cb.sp, boOpts), nil
	case "ddpg":
		return ddpg.NewTuner(cb.cl, cb.sp, nil, ddpg.TuneOptions{Seed: seed}), nil
	}
	return nil, fmt.Errorf("unknown policy %q", backend)
}

// offlinePlan is run idx of the tune_offline sequence: rounds of every
// policy on every (workload, cluster), one fresh seed per round.
func offlinePlan(seed uint64, idx int) plan {
	perRound := len(combos) * len(offlinePolicies)
	round, in := idx/perRound, idx%perRound
	// One stream per (round, combo): the four policies of a round tune the
	// same simulated application, as in the paper's comparison.
	rng := rand.New(rand.NewPCG(seed, uint64(phaseMeasure)<<32|uint64(round*len(combos)+in/len(offlinePolicies))))
	return plan{
		Index:   idx,
		ID:      fmt.Sprintf("run-%d-%d", seed, idx),
		Backend: offlinePolicies[in%len(offlinePolicies)],
		Combo:   in / len(offlinePolicies),
		Seed:    rng.Uint64() >> 1,
		SimSeed: rng.Uint64() >> 1,
	}
}

// tuneOne runs one policy to its stopping rule through tune.Tuner, with
// the experiments run on tune.Evaluator, timing every call into the tuner.
func tuneOne(p plan, th *thinker, tr *tracer, reg *obs.Registry, epoch time.Time) (sessionRec, error) {
	cb := combos[p.Combo]
	rec := sessionRec{plan: p, started: int64(time.Since(epoch))}
	t, err := newLibraryTuner(p.Backend, cb, p.Seed, reg)
	if err != nil {
		return rec, err
	}
	mod := policyLayer[p.Backend]
	ev := evaluatorFor(p)
	var last conf.Config
	for round := 0; !t.Done(); round++ {
		if round >= maxRounds {
			return rec, fmt.Errorf("%s (%s): no stopping rule after %d rounds", p.ID, p.Backend, maxRounds)
		}
		t0 := time.Now()
		last = t.Suggest()
		t1 := time.Now()
		smp, stats := th.experiment(ev, last)
		smp.Stats = stats
		t2 := time.Now()
		t.Observe(smp)
		t3 := time.Now()
		rec.suggests = append(rec.suggests, float64(t1.Sub(t0))/1e3)
		rec.observes = append(rec.observes, float64(t3.Sub(t2))/1e3)
		rec.experiments++
		rec.stressSec += smp.RuntimeSec
		if tr != nil && tr.on.Load() {
			tr.record(mod+".suggest", p.ID, "session", "", t0, t1)
			tr.record("sim.run", p.ID, "session", "", t1, t2)
			tr.record(mod+".observe", p.ID, "session", "", t2, t3)
		}
	}
	best, ok := t.Best()
	if want, wok := ev.Best(); ok != wok || best.Config != want.Config || best.RuntimeSec != want.RuntimeSec {
		return rec, fmt.Errorf("%s (%s): the tuner's best is not the fastest run it was shown", p.ID, p.Backend)
	}
	// When every experiment aborted there is no best run; the policy's
	// last word is the configuration it suggested last.
	rec.recommended = last
	if ok {
		rec.recommended = best.Config
	}
	rec.done = int64(time.Since(epoch))
	if tr != nil && tr.on.Load() {
		tr.record("session", p.ID, "", "", epoch.Add(time.Duration(rec.started)), epoch.Add(time.Duration(rec.done)))
	}
	return rec, nil
}

// runOffline is the harness of tune_offline: no service, no store — each
// policy run to completion on the simulator, in whole rounds, on one
// goroutine, for the run's duration.
func runOffline(cc caseConfig, o runOpts) (*result, error) {
	res := newResult(cc.Name, o.traced)
	var tr *tracer
	var reg *obs.Registry // nil: the BO family records no stage histograms
	if o.traced {
		tr = newTracer()
	}

	// Set-up is the exhaustive grid of every (workload, cluster).
	var setup []float64
	var orc *oracle
	for rep := 0; rep < cc.SetupReps; rep++ {
		t0 := time.Now()
		orc = newOracle()
		setup = append(setup, time.Since(t0).Seconds())
	}

	runtime.GC()
	perRound := len(combos) * len(offlinePolicies)
	start := time.Now()
	deadline := start.Add(o.duration())
	switchAt := start.Add(time.Duration(untracedShare * float64(o.duration())))
	var (
		recs       []sessionRec
		think      thinker
		roundRates []float64
		switchIdx  = -1
		memBefore  runtime.MemStats
		switchTime time.Time
	)
	cpu0 := processCPU()
	for round := 0; time.Now().Before(deadline); round++ {
		if tr != nil && switchIdx < 0 && !time.Now().Before(switchAt) {
			switchIdx = len(recs)
			reg = obs.NewRegistry()
			runtime.ReadMemStats(&memBefore)
			switchTime = time.Now()
			tr.on.Store(true)
		}
		r0 := time.Now()
		steps := 0
		for in := 0; in < perRound; in++ {
			rec, err := tuneOne(offlinePlan(o.seed, round*perRound+in), &think, tr, reg, start)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", cc.Name, err)
			}
			recs = append(recs, rec)
			steps += len(rec.observes)
		}
		roundRates = append(roundRates, float64(steps)/time.Since(r0).Seconds())
	}
	end := time.Now()
	cpu := processCPU() - cpu0
	for i := range recs {
		res.attempted += len(recs[i].suggests) + len(recs[i].observes)
	}

	ratios := orc.quality(recs, cc.QualityEvery)
	if err := checkPaperOrderings(recs, ratios, orc); err != nil {
		return nil, fmt.Errorf("%s: %w", cc.Name, err)
	}

	if tr == nil {
		t := sessionTotals{recs: recs, start: start, cpu: cpu, setup: setup, ratios: ratios}
		res.fillEndToEnd(t, t.steps(), stats.Median(roundRates))
		res.samples["steps_per_s"] = len(roundRates)
		res.notef("runs=%d rounds=%d tuner_calls=%d", len(recs), len(roundRates), res.attempted)
		return res, nil
	}

	if switchIdx < 0 {
		return nil, fmt.Errorf("%s: the run ended before tracing was switched on", cc.Name)
	}
	var memAfter runtime.MemStats
	runtime.ReadMemStats(&memAfter)
	if o.traceOut != "" {
		if err := tr.writeTo(o.traceOut); err != nil {
			return nil, err
		}
	}
	traced, plain := recs[switchIdx:], recs[:switchIdx]
	res.fillPolicies(sessionTotals{recs: traced, ratios: orc.quality(traced, cc.QualityEvery)})
	res.fillThink(think, end.Sub(start))
	res.fillTunerStages(reg, traced, plain, memBefore, memAfter)
	res.notef("traced_runs=%d untraced_runs=%d traced_wall_s=%.2f", len(traced), len(plain), end.Sub(switchTime).Seconds())
	return res, nil
}

// fillTunerStages reports the BO family's exported stage histograms, the
// process counters and the tracing overhead of a library-path traced run.
func (r *result) fillTunerStages(reg *obs.Registry, traced, plain []sessionRec, before, after runtime.MemStats) {
	st := stageDeltas(nil, []map[string]obs.Snapshot{reg.Snapshots()})
	r.setN("bo.acquisition_us_per_call", st["acquisition"].usPerCall(), int(st["acquisition"].count))
	r.setN("gp.append_us_per_call", st["surrogate.append"].usPerCall(), int(st["surrogate.append"].count))
	r.setN("gp.refit_us_per_call", st["surrogate.refit"].usPerCall(), int(st["surrogate.refit"].count))
	var observeUs float64
	calls, bayes := 0, 0
	var tracedObs, plainObs []float64
	for i := range traced {
		rec := &traced[i]
		calls += len(rec.suggests) + len(rec.observes)
		if rec.plan.Backend == "bo" || rec.plan.Backend == "gbo" {
			bayes++
			tracedObs = append(tracedObs, rec.observes...)
			for _, v := range rec.observes {
				observeUs += v
			}
		}
	}
	for i := range plain {
		if b := plain[i].plan.Backend; b == "bo" || b == "gbo" {
			plainObs = append(plainObs, plain[i].observes...)
		}
	}
	if observeUs > 0 {
		r.set("bo.acquisition_share_pct", 100*st["acquisition"].totalUs()/observeUs)
		r.set("gp.share_pct", 100*(st["surrogate.append"].totalUs()+st["surrogate.refit"].totalUs())/observeUs)
	}
	if bayes > 0 {
		r.set("gp.refits_per_session", float64(st["surrogate.refit"].count)/float64(bayes))
	}
	if n := st["surrogate.refit"].count; n > 0 {
		r.set("gp.appends_per_refit", float64(st["surrogate.append"].count)/float64(n))
	}
	if calls > 0 {
		r.set("process.allocs_per_op", float64(after.Mallocs-before.Mallocs)/float64(calls))
		r.set("process.alloc_bytes_per_op", float64(after.TotalAlloc-before.TotalAlloc)/float64(calls))
	}
	r.set("process.gc_cycles", float64(after.NumGC-before.NumGC))
	r.set("process.gc_pause_ms", float64(after.PauseTotalNs-before.PauseTotalNs)/1e6)
	if base := stats.Median(plainObs); base > 0 {
		// The histograms sit on the BO family's observe path.
		r.setN("process.tracing_overhead_pct", (stats.Median(tracedObs)/base-1)*100, len(plainObs))
	}
}

// checkPaperOrderings asserts what the paper claims of the four policies,
// on the runs just made: RelM needs a couple of profiling runs plus one
// verification, guided BO needs no more experiments than plain BO, and
// every policy beats the default configuration.
func checkPaperOrderings(recs []sessionRec, ratios map[string][]float64, orc *oracle) error {
	count := map[string]int{}
	exps := map[string]int{}
	var defaults []float64
	for i := range recs {
		rec := &recs[i]
		count[rec.plan.Backend]++
		exps[rec.plan.Backend] += rec.experiments
		if rec.plan.Backend == "relm" {
			if rec.experiments > 3 {
				return fmt.Errorf("%s: RelM ran %d experiments (at most 3: two profiles and a verification)", rec.plan.ID, rec.experiments)
			}
			defaults = append(defaults, orc.defaultRatio(rec.plan.Combo))
		}
	}
	meanExp := func(b string) float64 { return float64(exps[b]) / float64(max(1, count[b])) }
	if count["gbo"] > 0 && count["bo"] > 0 && meanExp("gbo") > meanExp("bo") {
		return fmt.Errorf("GBO averaged %.2f experiments per run, BO %.2f: the guide should not cost experiments", meanExp("gbo"), meanExp("bo"))
	}
	for _, b := range []string{"bo", "gbo", "ddpg"} {
		if count[b] > 0 && meanExp("relm") > meanExp(b) {
			return fmt.Errorf("RelM averaged %.2f experiments per run, %s only %.2f", meanExp("relm"), b, meanExp(b))
		}
	}
	def := stats.Mean(defaults)
	for b, rs := range ratios {
		if len(defaults) > 0 && stats.Mean(rs) >= def {
			return fmt.Errorf("%s's mean objective ratio %.3f is not below the default configuration's %.3f", b, stats.Mean(rs), def)
		}
	}
	return nil
}
