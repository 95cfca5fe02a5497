package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"relm/internal/obs"
	"relm/internal/stats"
	"relm/internal/store"
)

// runOpts is one run of one workload, as the command line asked for it.
type runOpts struct {
	seed     uint64
	seconds  float64
	traced   bool
	scale    float64
	traceOut string
}

func (o runOpts) duration() time.Duration { return time.Duration(o.seconds * float64(time.Second)) }

// untracedShare is the part of a traced run's measured phase that runs with
// the wrappers installed but off; it gives the latency the tracing overhead
// is measured against. The rest runs with them on.
const untracedShare = 0.25

// rampTime is how long the serve workloads run unmeasured traffic between
// set-up and the measured phase. Without it the first second of every run
// reads 10–40% slower than the rest.
const rampTime = 2 * time.Second

// counters is the program's own exported accounting, read before and after
// the traced phase.
type counters struct {
	stages  []map[string]obs.Snapshot
	stores  []store.Metrics
	ingestB int64
	mem     runtime.MemStats
	at      time.Time
}

func (c *testCluster) readCounters() counters {
	k := counters{stages: c.stageSnapshots(), at: time.Now()}
	for _, n := range c.nodes {
		mt := n.m.Metrics()
		k.stores = append(k.stores, mt.Store)
		k.ingestB += mt.Replica.IngestBytes
	}
	runtime.ReadMemStats(&k.mem)
	return k
}

// collectClients merges what the clients saw.
func collectClients(clients []*httpClient) (recs []sessionRec, th thinker, ops, failed int, errs []string) {
	for _, c := range clients {
		recs = append(recs, c.recs...)
		th.add(&c.think)
		ops += c.ops
		failed += c.failed
		errs = append(errs, c.errs...)
	}
	return
}

// runServe is the harness of serve_light and serve_bayes: in this process,
// a router in front of two fsyncing, replicating nodes over loopback HTTP,
// loaded by closed-loop clients that stress-test every suggestion on the
// simulator and report the real outcome.
func runServe(cc caseConfig, o runOpts) (*result, error) {
	res := newResult(cc.Name, o.traced)
	root, fs, err := dataRoot()
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	res.notef("data_dir_fs=%s", fs)

	var tr *tracer
	if o.traced {
		tr = newTracer()
	}

	// Set-up: the quality oracle, the cluster boot and the unmeasured
	// warm-up sessions (connections, first compactions, a first fill of
	// the model repository). Repeated; the last boot carries the run.
	var (
		setup []float64
		orc   *oracle
		cl    *testCluster
	)
	for rep := 0; rep < cc.SetupReps; rep++ {
		t0 := time.Now()
		orc = newOracle()
		dir := filepath.Join(root, fmt.Sprintf("boot%d", rep))
		if cl, err = bootCluster(dir, tr); err != nil {
			return nil, err
		}
		warm := driveClients(cc, cl.url, nil, o.seed, phaseWarmup, t0, func(i int) bool { return i >= cc.WarmupSessions }, 0)
		_, _, _, failed, errs := collectClients(warm)
		setup = append(setup, time.Since(t0).Seconds())
		if failed > 0 {
			cl.Close()
			return nil, fmt.Errorf("%s: %d warm-up operations failed: %s", cc.Name, failed, strings.Join(errs, "; "))
		}
		if rep < cc.SetupReps-1 {
			cl.Close()
			os.RemoveAll(dir)
		}
	}
	defer cl.Close()

	// Ramp: measured-phase traffic, unmeasured, until the heap, the
	// compaction cycle and the connection pools have reached the state the
	// rest of the run keeps. Its sessions come from the warm-up stream, past
	// the ones set-up used.
	rampEnd := time.Now().Add(rampTime)
	ramp := driveClients(cc, cl.url, nil, o.seed, phaseWarmup, time.Now(),
		func(int) bool { return !time.Now().Before(rampEnd) }, cc.WarmupSessions)
	if _, _, _, failed, errs := collectClients(ramp); failed > 0 {
		return nil, fmt.Errorf("%s: %d ramp operations failed: %s", cc.Name, failed, strings.Join(errs, "; "))
	}

	// Measured phase.
	runtime.GC()
	start := time.Now()
	deadline := start.Add(o.duration())
	switchAfter := time.Duration(untracedShare * float64(o.duration()))
	beforeCh := make(chan counters, 1)
	var timer *time.Timer
	if tr != nil {
		timer = time.AfterFunc(switchAfter, func() {
			k := cl.readCounters()
			tr.on.Store(true)
			beforeCh <- k
		})
	}
	cpu0 := processCPU()
	clients := driveClients(cc, cl.url, tr, o.seed, phaseMeasure, start, func(int) bool { return !time.Now().Before(deadline) }, 0)
	end := time.Now()
	cpu := processCPU() - cpu0
	recs, think, ops, failed, errs := collectClients(clients)
	res.attempted, res.failed = ops, failed

	// Output checks: nothing failed, nothing was retried.
	if failed > 0 {
		return nil, fmt.Errorf("%s: %d of %d operations failed: %s", cc.Name, failed, ops, strings.Join(errs, "; "))
	}
	retries, err := cl.retries()
	if err != nil {
		return nil, err
	}
	if retries != 0 {
		return nil, fmt.Errorf("%s: the router retried %d requests on a healthy cluster", cc.Name, retries)
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("%s: no session completed in %v", cc.Name, o.duration())
	}

	if tr == nil {
		t := sessionTotals{recs: recs, start: start, cpu: cpu, thinkCPU: think.cpu, setup: setup}
		t.ratios = orc.quality(recs, cc.QualityEvery)
		res.fillEndToEnd(t, t.steps(), t.stepRate())
		res.notef("sessions=%d requests=%d think_cpu_s=%.3f", len(recs), ops, think.cpu.Seconds())
		return res, nil
	}

	if timer.Stop() {
		return nil, fmt.Errorf("%s: the run ended before tracing was switched on", cc.Name)
	}
	before := <-beforeCh
	after := cl.readCounters()
	tr.on.Store(false)
	var unshipped int64
	for _, n := range cl.nodes {
		unshipped += n.set.Stats().BytesBehind
	}
	if o.traceOut != "" {
		if err := tr.writeTo(o.traceOut); err != nil {
			return nil, err
		}
	}
	res.fillServeLayers(cc, tr.snapshot(), recs, think, before, after, switchAfter, end.Sub(start), cl, orc)
	res.set("router.retries", float64(retries))
	res.set("replica.unshipped_bytes_at_end", float64(unshipped))
	return res, nil
}

// fillServeLayers turns the traced phase into the per-layer report.
func (r *result) fillServeLayers(cc caseConfig, spans []span, recs []sessionRec, think thinker,
	before, after counters, switchNs, measured time.Duration, cl *testCluster, orc *oracle) {
	// Sessions wholly inside the traced phase, and those wholly before it.
	var traced, plain []sessionRec
	for _, rec := range recs {
		switch {
		case rec.started >= int64(switchNs):
			traced = append(traced, rec)
		case rec.done < int64(switchNs):
			plain = append(plain, rec)
		}
	}
	wall := after.at.Sub(before.at)
	t := sessionTotals{recs: traced, ratios: orc.quality(traced, cc.QualityEvery)}
	r.fillPolicies(t)
	r.fillThink(think, time.Duration(cc.Clients)*measured)

	// client: raw samples of the traced phase.
	var creates, statuses, closes, suggests, observes []float64
	warm, warmHits := 0, 0
	bayes := 0
	for i := range traced {
		rec := &traced[i]
		creates = append(creates, rec.create)
		statuses = append(statuses, rec.status)
		closes = append(closes, rec.close)
		suggests = append(suggests, rec.suggests...)
		observes = append(observes, rec.observes...)
		if rec.plan.Warm {
			warm++
			if rec.warmHit {
				warmHits++
			}
		}
		if rec.plan.Backend == "bo" || rec.plan.Backend == "gbo" {
			bayes++
		}
	}
	r.setN("client.suggest_p50_us", stats.Median(suggests), len(suggests))
	r.setN("client.observe_p50_us", stats.Median(observes), len(observes))
	r.setN("client.create_p50_us", stats.Median(creates), len(creates))
	r.setN("client.status_p50_us", stats.Median(statuses), len(statuses))
	r.setN("client.close_p50_us", stats.Median(closes), len(closes))
	r.setN("client.suggest_p99_us", stats.Percentile(suggests, 99), len(suggests))
	r.setN("client.observe_p99_us", stats.Percentile(observes, 99), len(observes))
	r.set("client.suggest_samples", float64(len(suggests)))
	r.set("client.observe_samples", float64(len(observes)))
	if warm > 0 {
		r.setN("service.warm_hit_ratio", float64(warmHits)/float64(warm), warm)
	}
	var plainSuggests []float64
	for i := range plain {
		plainSuggests = append(plainSuggests, plain[i].suggests...)
	}
	if base := stats.Median(plainSuggests); base > 0 {
		r.setN("process.tracing_overhead_pct", (stats.Median(suggests)/base-1)*100, len(plainSuggests))
	}

	// The program's own stage histograms, as deltas over the traced phase.
	st := stageDeltas(before.stages, after.stages)
	tuner := st["acquisition"].totalUs() + st["surrogate.append"].totalUs() + st["surrogate.refit"].totalUs()
	r.setN("router.pick_us_per_call", st["router.pick"].usPerCall(), int(st["router.pick"].count))
	r.setN("router.proxy_us_per_call", st["router.proxy"].usPerCall(), int(st["router.proxy"].count))
	r.setN("service.create_us_per_call", st["service.create"].usPerCall(), int(st["service.create"].count))
	r.setN("service.suggest_us_per_call", st["service.suggest"].usPerCall(), int(st["service.suggest"].count))
	r.setN("service.observe_us_per_call", st["service.observe"].usPerCall(), int(st["service.observe"].count))
	r.setN("store.flush_wait_us_per_event", st["wal.flush_wait"].usPerCall(), int(st["wal.flush_wait"].count))
	r.setN("replica.ship_us_per_cycle", st["replica.ship"].usPerCall(), int(st["replica.ship"].count))
	r.setN("replica.ingest_us_per_call", st["replica.ingest"].usPerCall(), int(st["replica.ingest"].count))
	r.setN("bo.acquisition_us_per_call", st["acquisition"].usPerCall(), int(st["acquisition"].count))
	r.setN("gp.append_us_per_call", st["surrogate.append"].usPerCall(), int(st["surrogate.append"].count))
	r.setN("gp.refit_us_per_call", st["surrogate.refit"].usPerCall(), int(st["surrogate.refit"].count))
	if wall > 0 {
		r.set("replica.ship_busy_pct", 100*st["replica.ship"].totalUs()/(float64(wall)/1e3*float64(len(cl.nodes))))
	}
	if bayes > 0 {
		r.set("gp.refits_per_session", float64(st["surrogate.refit"].count)/float64(bayes))
	}
	if n := st["surrogate.refit"].count; n > 0 {
		r.set("gp.appends_per_refit", float64(st["surrogate.append"].count)/float64(n))
	}

	// The span tree: client = unattributed + router.self + service.self
	// (of which the tuner stages) + store.append, per operation.
	dec := decompose(spans)
	all := dec["all"]
	r.setN("client.unattributed_us_per_op", all.per(all.unattributed()), all.n)
	r.setN("router.self_us_per_op", all.per(all.routerSelf()), all.n)
	r.setN("service.self_us_per_op", all.per(all.serviceSelf()-tuner), all.n)
	if all.client > 0 {
		r.set("router.share_pct", 100*all.routerSelf()/all.client)
		r.set("service.share_pct", 100*(all.serviceSelf()-tuner)/all.client)
		r.set("store.share_pct", 100*all.store/all.client)
	}
	if ob := dec["observe"]; ob != nil && ob.client > 0 {
		// Acquisition scoring and surrogate updates run inside observe.
		r.set("bo.acquisition_share_pct", 100*st["acquisition"].totalUs()/ob.client)
		r.set("gp.share_pct", 100*(st["surrogate.append"].totalUs()+st["surrogate.refit"].totalUs())/ob.client)
	}
	for _, op := range []string{"create", "suggest", "observe", "status", "close", "all"} {
		b := dec[op]
		if b == nil || b.n == 0 {
			continue
		}
		stage := 0.0
		if op == "observe" || op == "all" {
			stage = tuner
		}
		r.notef("decomposition %-8s n=%-6d client=%.1fus = unattributed %.1f + router.self %.1f + service.self %.1f + tuner.stages %.1f + store.append %.1f",
			op, b.n, b.per(b.client), b.per(b.unattributed()), b.per(b.routerSelf()),
			b.per(b.serviceSelf()-stage), b.per(stage), b.per(b.store))
	}

	// store and replica counters.
	appends, compacts := spanDurations(spans, "store.append"), spanDurations(spans, "store.compact")
	r.setN("store.append_us_per_event", stats.Mean(appends), len(appends))
	r.setN("store.compact_ms", stats.Mean(compacts)/1e3, len(compacts))
	r.set("store.compactions", float64(len(compacts)))
	var batches, batched uint64
	var events, obsEvents, bytes, snapBytes int64
	for i, n := range cl.nodes {
		batches += after.stores[i].Batches - before.stores[i].Batches
		batched += after.stores[i].BatchedEvents - before.stores[i].BatchedEvents
		snapBytes = max(snapBytes, after.stores[i].SnapshotBytes)
		events += n.ts.events.Load()
		obsEvents += n.ts.observes.Load()
		bytes += n.ts.bytes.Load()
	}
	r.set("store.snapshot_bytes", float64(snapBytes))
	if batches > 0 {
		r.set("store.events_per_batch", float64(batched)/float64(batches))
	}
	if events > 0 {
		r.set("store.wal_bytes_per_event", float64(bytes)/float64(events))
	}
	if obsEvents > 0 {
		r.set("store.fsyncs_per_observe", float64(batches)/float64(obsEvents))
		r.set("store.wal_bytes_per_observe", float64(bytes)/float64(obsEvents))
		r.set("replica.bytes_per_observe", float64(after.ingestB-before.ingestB)/float64(obsEvents))
	}

	// process
	if all.n > 0 {
		r.set("process.allocs_per_op", float64(after.mem.Mallocs-before.mem.Mallocs)/float64(all.n))
		r.set("process.alloc_bytes_per_op", float64(after.mem.TotalAlloc-before.mem.TotalAlloc)/float64(all.n))
	}
	r.set("process.gc_cycles", float64(after.mem.NumGC-before.mem.NumGC))
	r.set("process.gc_pause_ms", float64(after.mem.PauseTotalNs-before.mem.PauseTotalNs)/1e6)
	r.notef("traced_sessions=%d untraced_sessions=%d traced_requests=%d spans=%d", len(traced), len(plain), all.n, len(spans))
}
