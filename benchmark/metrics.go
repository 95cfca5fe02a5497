package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"relm/internal/conf"
	"relm/internal/stats"
)

// metricDef declares one reported number. BENCHMARK.json lists the same
// names, units and directions; the tests hold the two together.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// endToEnd is what a user of the system sees. Every workload reports every
// one; cases/<workload>/WHY.md says what each means there.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "step_p50_us", Unit: "us", Better: "lower"},
	{Name: "session_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "steps_per_s", Unit: "1/s", Better: "higher"},
	{Name: "cpu_us_per_step", Unit: "us", Better: "lower"},
	{Name: "rss_peak_mb", Unit: "MB", Better: "lower"},
	{Name: "quality_pct", Unit: "%", Better: "higher"},
	{Name: "experiments_per_session", Unit: "count", Better: "lower"},
}

// perLayer is the traced run's report, <module>.<metric>. A layer a
// workload bypasses reports 0 there: that is the measurement.
var perLayer = []metricDef{
	// client: the benchmark's own driver.
	{Name: "client.suggest_p50_us", Unit: "us", Better: "lower"},
	{Name: "client.observe_p50_us", Unit: "us", Better: "lower"},
	{Name: "client.create_p50_us", Unit: "us", Better: "lower"},
	{Name: "client.status_p50_us", Unit: "us", Better: "lower"},
	{Name: "client.close_p50_us", Unit: "us", Better: "lower"},
	{Name: "client.suggest_p99_us", Unit: "us", Better: "lower"},
	{Name: "client.observe_p99_us", Unit: "us", Better: "lower"},
	{Name: "client.suggest_samples", Unit: "count", Better: "higher"},
	{Name: "client.observe_samples", Unit: "count", Better: "higher"},
	{Name: "client.simulate_cpu_s", Unit: "s", Better: "lower"},
	{Name: "client.unattributed_us_per_op", Unit: "us", Better: "lower"},
	// router
	{Name: "router.self_us_per_op", Unit: "us", Better: "lower"},
	{Name: "router.pick_us_per_call", Unit: "us", Better: "lower"},
	{Name: "router.proxy_us_per_call", Unit: "us", Better: "lower"},
	{Name: "router.retries", Unit: "count", Better: "lower"},
	{Name: "router.share_pct", Unit: "%", Better: "lower"},
	// service
	{Name: "service.self_us_per_op", Unit: "us", Better: "lower"},
	{Name: "service.share_pct", Unit: "%", Better: "lower"},
	{Name: "service.create_us_per_call", Unit: "us", Better: "lower"},
	{Name: "service.suggest_us_per_call", Unit: "us", Better: "lower"},
	{Name: "service.observe_us_per_call", Unit: "us", Better: "lower"},
	{Name: "service.warm_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "service.recover_ms", Unit: "ms", Better: "lower"},
	{Name: "service.replay_events_per_s", Unit: "1/s", Better: "higher"},
	{Name: "service.handoff_extract_ms", Unit: "ms", Better: "lower"},
	{Name: "service.snapshot_ms", Unit: "ms", Better: "lower"},
	{Name: "service.reopen_compacted_ms", Unit: "ms", Better: "lower"},
	// store
	{Name: "store.append_us_per_event", Unit: "us", Better: "lower"},
	{Name: "store.share_pct", Unit: "%", Better: "lower"},
	{Name: "store.flush_wait_us_per_event", Unit: "us", Better: "lower"},
	{Name: "store.events_per_batch", Unit: "count", Better: "higher"},
	{Name: "store.fsyncs_per_observe", Unit: "count", Better: "lower"},
	{Name: "store.wal_bytes_per_event", Unit: "B", Better: "lower"},
	{Name: "store.wal_bytes_per_observe", Unit: "B", Better: "lower"},
	{Name: "store.load_ms", Unit: "ms", Better: "lower"},
	{Name: "store.compact_ms", Unit: "ms", Better: "lower"},
	{Name: "store.snapshot_bytes", Unit: "B", Better: "lower"},
	{Name: "store.compactions", Unit: "count", Better: "lower"},
	// replica
	{Name: "replica.ship_us_per_cycle", Unit: "us", Better: "lower"},
	{Name: "replica.ingest_us_per_call", Unit: "us", Better: "lower"},
	{Name: "replica.ship_busy_pct", Unit: "%", Better: "lower"},
	{Name: "replica.bytes_per_observe", Unit: "B", Better: "lower"},
	{Name: "replica.unshipped_bytes_at_end", Unit: "B", Better: "lower"},
	{Name: "replica.promote_ms", Unit: "ms", Better: "lower"},
	// bo / gbo / gp
	{Name: "bo.acquisition_us_per_call", Unit: "us", Better: "lower"},
	{Name: "bo.acquisition_share_pct", Unit: "%", Better: "lower"},
	{Name: "bo.suggest_us_per_call", Unit: "us", Better: "lower"},
	{Name: "bo.observe_us_per_call", Unit: "us", Better: "lower"},
	{Name: "bo.tune_p50_us", Unit: "us", Better: "lower"},
	{Name: "bo.experiments_mean", Unit: "count", Better: "lower"},
	{Name: "bo.stress_min_mean", Unit: "min", Better: "lower"},
	{Name: "bo.regret_pct", Unit: "%", Better: "lower"},
	{Name: "gbo.suggest_us_per_call", Unit: "us", Better: "lower"},
	{Name: "gbo.observe_us_per_call", Unit: "us", Better: "lower"},
	{Name: "gbo.tune_p50_us", Unit: "us", Better: "lower"},
	{Name: "gbo.experiments_mean", Unit: "count", Better: "lower"},
	{Name: "gbo.stress_min_mean", Unit: "min", Better: "lower"},
	{Name: "gbo.regret_pct", Unit: "%", Better: "lower"},
	{Name: "gp.append_us_per_call", Unit: "us", Better: "lower"},
	{Name: "gp.refit_us_per_call", Unit: "us", Better: "lower"},
	{Name: "gp.share_pct", Unit: "%", Better: "lower"},
	{Name: "gp.refits_per_session", Unit: "count", Better: "lower"},
	{Name: "gp.appends_per_refit", Unit: "count", Better: "higher"},
	// core (RelM) / ddpg
	{Name: "core.suggest_us_per_call", Unit: "us", Better: "lower"},
	{Name: "core.observe_us_per_call", Unit: "us", Better: "lower"},
	{Name: "core.tune_p50_us", Unit: "us", Better: "lower"},
	{Name: "core.experiments_mean", Unit: "count", Better: "lower"},
	{Name: "core.stress_min_mean", Unit: "min", Better: "lower"},
	{Name: "core.regret_pct", Unit: "%", Better: "lower"},
	{Name: "ddpg.suggest_us_per_call", Unit: "us", Better: "lower"},
	{Name: "ddpg.observe_us_per_call", Unit: "us", Better: "lower"},
	{Name: "ddpg.tune_p50_us", Unit: "us", Better: "lower"},
	{Name: "ddpg.experiments_mean", Unit: "count", Better: "lower"},
	{Name: "ddpg.stress_min_mean", Unit: "min", Better: "lower"},
	{Name: "ddpg.regret_pct", Unit: "%", Better: "lower"},
	{Name: "ddpg.create_p50_us", Unit: "us", Better: "lower"},
	// sim / profile: client think time on the serve workloads, the work
	// itself on tune_offline.
	{Name: "sim.run_us_per_call", Unit: "us", Better: "lower"},
	{Name: "sim.share_pct", Unit: "%", Better: "lower"},
	{Name: "sim.aborts_pct", Unit: "%", Better: "lower"},
	{Name: "profile.stats_us_per_call", Unit: "us", Better: "lower"},
	// process
	{Name: "process.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "process.alloc_bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "process.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "process.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "process.tracing_overhead_pct", Unit: "%", Better: "lower"},
}

// policyLayer maps a backend name to its module, the prefix of its
// per-layer metrics.
var policyLayer = map[string]string{"relm": "core", "bo": "bo", "gbo": "gbo", "ddpg": "ddpg"}

// result is one run of one workload.
type result struct {
	workload  string
	traced    bool
	attempted int
	failed    int
	metrics   map[string]float64
	samples   map[string]int // sample counts behind the timing metrics
	notes     []string       // facts of the run printed with the table
}

func newResult(workload string, traced bool) *result {
	return &result{workload: workload, traced: traced, metrics: map[string]float64{}, samples: map[string]int{}}
}

func (r *result) set(name string, v float64) { r.metrics[name] = v }

func (r *result) setN(name string, v float64, n int) {
	r.metrics[name] = v
	r.samples[name] = n
}

func (r *result) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// declared returns the metrics this run must print, and checks that each
// is present (per-layer metrics of a bypassed layer default to 0) and
// finite.
func (r *result) declared() ([]metricDef, error) {
	defs := endToEnd
	if r.traced {
		defs = perLayer
	}
	for _, d := range defs {
		v, ok := r.metrics[d.Name]
		if !ok {
			if !r.traced {
				return nil, fmt.Errorf("%s: end-to-end metric %s was not measured", r.workload, d.Name)
			}
			r.metrics[d.Name] = 0
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("%s: metric %s is %v", r.workload, d.Name, v)
		}
	}
	return defs, nil
}

// sessionRec is what one tuning session looked like from its caller's
// side, whichever path carried it: HTTP through the router, the library,
// or a recovered manager. Every end-to-end number is an aggregate of these.
type sessionRec struct {
	plan plan
	// Latencies of the calls the caller made, think time excluded.
	create, status, close float64 // µs (0 when the path has no such call)
	suggests, observes    []float64
	experiments           int     // stress tests run, incl. a warm session's default profile
	stressSec             float64 // simulated wall-clock those stress tests would take
	recommended           conf.Config
	warmHit               bool
	started, done         int64 // ns since the run's epoch
}

func (r *sessionRec) totalUs() float64 {
	t := r.create + r.status + r.close
	for _, v := range r.suggests {
		t += v
	}
	for _, v := range r.observes {
		t += v
	}
	return t
}

// steps are the session's tuning steps as its caller waited for them: the
// suggest that produced a configuration plus the observe that reported its
// outcome. On the library path a suggest alone is a cached read of what the
// previous observe computed — too short to time — so the step is the unit.
func (r *sessionRec) steps() []float64 {
	out := make([]float64, len(r.observes))
	for i := range r.observes {
		out[i] = r.suggests[i] + r.observes[i]
	}
	return out
}

// sessionTotals is the part of a run every workload measures the same way,
// whatever path carried its sessions.
type sessionTotals struct {
	recs     []sessionRec
	start    time.Time // of the measured phase; sessionRec.done counts from here
	cpu      time.Duration
	thinkCPU time.Duration // taken out of cpu when the simulator is think time
	setup    []float64     // seconds, one per set-up repetition
	// scored are the sessions whose experiments are counted and whose
	// recommendations ratios holds; nil means recs. recover_replay scores
	// every session of its log once, not the resumed ones once per repetition.
	scored []sessionRec
	ratios map[string][]float64
}

// balancedMedian is the mean over policies of each policy's median: the
// policies' latencies sit in separate modes (a RelM step is tens of µs of
// tuner time, a BO step hundreds), and the median of the pooled samples
// falls in the gap between two modes, where it jumps with the mix.
func balancedMedian(byPolicy map[string][]float64) (float64, int) {
	var meds []float64
	n := 0
	for _, samples := range byPolicy {
		meds = append(meds, stats.Median(samples))
		n += len(samples)
	}
	return stats.Mean(meds), n
}

// fillEndToEnd derives the end-to-end metrics from the session records.
// steps is the workload's count of tuning steps completed in the measured
// phase and rate its steps per second; how a workload counts them is in its
// WHY.md (recover_replay counts the observations crash replay brought back).
func (r *result) fillEndToEnd(t sessionTotals, steps int, rate float64) {
	stepLat, totals := map[string][]float64{}, map[string][]float64{}
	for i := range t.recs {
		rec := &t.recs[i]
		b := rec.plan.Backend
		stepLat[b] = append(stepLat[b], rec.steps()...)
		totals[b] = append(totals[b], rec.totalUs()/1e3)
	}
	scored := t.scored
	if scored == nil {
		scored = t.recs
	}
	var experiments int
	for i := range scored {
		experiments += scored[i].experiments
	}
	r.setN("setup_s", stats.Median(t.setup), len(t.setup))
	v, n := balancedMedian(stepLat)
	r.setN("step_p50_us", v, n)
	v, n = balancedMedian(totals)
	r.setN("session_p50_ms", v, n)
	r.set("steps_per_s", rate)
	if steps > 0 {
		r.set("cpu_us_per_step", float64(t.cpu-t.thinkCPU)/1e3/float64(steps))
	}
	r.set("rss_peak_mb", peakRSSMB())
	var all []float64
	for _, rs := range t.ratios {
		all = append(all, rs...)
	}
	sort.Float64s(all) // a fixed summation order, so equal inputs print equal digits
	if m := stats.Mean(all); m > 0 {
		r.setN("quality_pct", 100/m, len(all))
	}
	if len(scored) > 0 {
		r.set("experiments_per_session", float64(experiments)/float64(len(scored)))
	}
}

// steps is the number of tuning steps the recorded sessions completed.
func (t sessionTotals) steps() int {
	n := 0
	for i := range t.recs {
		n += len(t.recs[i].observes)
	}
	return n
}

// stepRate is tuning steps completed per second over the measured phase,
// as the median over blocks of session completions.
func (t sessionTotals) stepRate() float64 {
	order := make([]int, len(t.recs))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return t.recs[order[a]].done < t.recs[order[b]].done })
	done := make([]time.Time, len(order))
	work := make([]float64, len(order))
	for k, i := range order {
		done[k] = t.start.Add(time.Duration(t.recs[i].done))
		work[k] = float64(len(t.recs[i].observes))
	}
	return blockRate(done, work, t.start)
}

// fillPolicies derives the per-policy layer metrics (bo.*, gbo.*, core.*,
// ddpg.*) from the session records: what each policy's sessions cost their
// caller and how good their recommendations were.
func (r *result) fillPolicies(t sessionTotals) {
	type agg struct {
		suggests, observes, totals, creates []float64
		experiments                         int
		stressSec                           float64
		n                                   int
	}
	by := map[string]*agg{}
	for i := range t.recs {
		rec := &t.recs[i]
		a := by[rec.plan.Backend]
		if a == nil {
			a = &agg{}
			by[rec.plan.Backend] = a
		}
		a.n++
		a.suggests = append(a.suggests, rec.suggests...)
		a.observes = append(a.observes, rec.observes...)
		a.totals = append(a.totals, rec.totalUs())
		a.creates = append(a.creates, rec.create)
		a.experiments += rec.experiments
		a.stressSec += rec.stressSec
	}
	for backend, a := range by {
		mod := policyLayer[backend]
		r.setN(mod+".suggest_us_per_call", stats.Mean(a.suggests), len(a.suggests))
		r.setN(mod+".observe_us_per_call", stats.Mean(a.observes), len(a.observes))
		r.setN(mod+".tune_p50_us", stats.Median(a.totals), a.n)
		r.set(mod+".experiments_mean", float64(a.experiments)/float64(a.n))
		r.set(mod+".stress_min_mean", a.stressSec/60/float64(a.n))
		if backend == "ddpg" {
			r.setN("ddpg.create_p50_us", stats.Median(a.creates), a.n)
		}
	}
	for backend, ratios := range t.ratios {
		s := append([]float64(nil), ratios...)
		sort.Float64s(s)
		r.setN(policyLayer[backend]+".regret_pct", (stats.Mean(s)-1)*100, len(s))
	}
}

// fillThink reports the simulator and profile layers from the clients'
// think-time accounting.
func (r *result) fillThink(th thinker, wall time.Duration) {
	if th.simRuns > 0 {
		r.setN("sim.run_us_per_call", float64(th.simWall)/1e3/float64(th.simRuns), th.simRuns)
		r.set("sim.aborts_pct", 100*float64(th.simAborts)/float64(th.simRuns))
	}
	if th.profCalls > 0 {
		r.setN("profile.stats_us_per_call", float64(th.profWall)/1e3/float64(th.profCalls), th.profCalls)
	}
	if wall > 0 {
		r.set("sim.share_pct", 100*float64(th.simWall)/float64(wall))
	}
	r.set("client.simulate_cpu_s", th.cpu.Seconds())
}
