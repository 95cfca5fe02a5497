package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"relm/internal/conf"
	"relm/internal/obs"
	"relm/internal/replica"
	"relm/internal/service"
	"relm/internal/stats"
	"relm/internal/store"
	"relm/internal/tune"
)

// recoverNode is the node name the WAL is built and replayed under.
const recoverNode = "r"

// noCompaction keeps the snapshotter quiet, so the log holds every event
// of the build and bytes per observation repeat exactly.
const noCompaction = 1 << 30

// crashImage is what set-up leaves behind: a data directory as a kill -9
// would leave it, and what a correct recovery must reproduce from it.
type crashImage struct {
	dir      string
	sessions int               // sessions whose events the log holds
	closed   []sessionRec      // those that ran to completion before the crash
	open     []plan            // sessions alive at the crash, in ID order
	digests  map[string]string // history digest of each open session at the crash
	// After the crash the original manager carried each open session to
	// its stopping rule; a recovered manager must suggest exactly the same.
	tail         map[string][]conf.Config
	walBytes     int64
	walEvents    uint64
	observations int64
}

func historyDigest(h []service.HistoryEntry) string {
	buf, _ := json.Marshal(h)
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:])
}

// openManager is a node start: store.OpenFile + service.Open on dir. tr,
// when set, puts the timing decorator between the two.
func openManager(dir string, reg *obs.Registry, tr *tracer) (*service.Manager, error) {
	st, err := store.OpenFile(dir, fileOptions(reg))
	if err != nil {
		return nil, err
	}
	var s store.Store = st
	if tr != nil {
		s = &tracedStore{Store: st, t: tr, node: recoverNode}
	}
	m, err := service.Open(service.Options{NodeID: recoverNode, Obs: reg, Store: s, SnapshotEvery: noCompaction})
	if err != nil {
		st.Close()
		return nil, err
	}
	return m, nil
}

// managerSession drives one session straight through service.Manager,
// from wherever it stands to its stopping rule (or, with stopAfter > 0,
// for that many observations), timing every call. seen receives each
// suggested configuration.
func managerSession(m *service.Manager, p plan, ev *tune.Evaluator, th *thinker, rec *sessionRec, stopAfter int, seen func(conf.Config)) error {
	for round := 0; ; round++ {
		if round >= maxRounds {
			return fmt.Errorf("%s: no stopping rule after %d rounds", p.ID, maxRounds)
		}
		t0 := time.Now()
		cfg, done, err := m.Suggest(p.ID)
		rec.suggests = append(rec.suggests, float64(time.Since(t0))/1e3)
		if err != nil {
			return fmt.Errorf("%s: suggest: %w", p.ID, err)
		}
		if done {
			return nil
		}
		rec.recommended = cfg // stands unless a best run replaces it
		if seen != nil {
			seen(cfg)
		}
		if stopAfter > 0 && round == stopAfter {
			return nil // crash with this suggestion outstanding
		}
		smp, stats := th.experiment(ev, cfg)
		rec.experiments++
		rec.stressSec += smp.RuntimeSec
		t1 := time.Now()
		st, err := m.Observe(p.ID, service.Observation{
			Config: cfg, RuntimeSec: smp.RuntimeSec, Aborted: smp.Result.Aborted,
			GCOverhead: smp.Result.GCOverhead, Stats: stats,
		})
		rec.observes = append(rec.observes, float64(time.Since(t1))/1e3)
		if err != nil {
			return fmt.Errorf("%s: observe: %w", p.ID, err)
		}
		if st.Done {
			return nil
		}
	}
}

// finishSession asks the manager for the session's recommendation, checks
// its books against the client's, and closes it.
func finishSession(m *service.Manager, p plan, rec *sessionRec, wantEvals int) error {
	t0 := time.Now()
	st, err := m.Get(p.ID)
	rec.status = float64(time.Since(t0)) / 1e3
	if err != nil {
		return fmt.Errorf("%s: status: %w", p.ID, err)
	}
	if st.State != service.StateDone {
		return fmt.Errorf("%s: state %q after its stopping rule fired (%s)", p.ID, st.State, st.Err)
	}
	if st.Evals != wantEvals {
		return fmt.Errorf("%s: manager recorded %d evals, %d were acknowledged", p.ID, st.Evals, wantEvals)
	}
	if st.Best != nil {
		rec.recommended = st.Best.Config
	}
	t1 := time.Now()
	err = m.CloseSession(p.ID)
	rec.close = float64(time.Since(t1)) / 1e3
	return err
}

// buildCrashImage is recover_replay's set-up: drive a serve_light +
// serve_bayes session mix through one durable manager, leave a share of
// the sessions open mid-flight, copy the directory as a crash would leave
// it, then let the original manager finish the open sessions to learn what
// a bit-exact recovery has to suggest.
func buildCrashImage(cc caseConfig, seed uint64, root string, rep int) (*crashImage, error) {
	live := filepath.Join(root, fmt.Sprintf("build%d", rep))
	m, err := openManager(live, obs.NewRegistry(), nil)
	if err != nil {
		return nil, err
	}
	defer m.Close()
	img := &crashImage{
		dir:      filepath.Join(root, fmt.Sprintf("image%d", rep)),
		sessions: cc.Sessions,
		digests:  map[string]string{},
		tail:     map[string][]conf.Config{},
	}
	var th thinker
	for i := 0; i < cc.Sessions; i++ {
		p := planSession(cc, seed, phaseBuild, i)
		cb := combos[p.Combo]
		ev := evaluatorFor(p)
		req := createBody(p, cb, &th, ev)
		if _, err := m.Create(service.Spec{
			ID: p.ID, Backend: p.Backend, Workload: cb.wl.Name, Cluster: cb.cl.Name, Seed: p.Seed,
			WarmStart: req.WarmStart, Stats: req.Stats, DefaultRuntimeSec: req.DefaultRuntimeSec,
		}); err != nil {
			return nil, fmt.Errorf("%s: create: %w", p.ID, err)
		}
		rec := sessionRec{plan: p}
		// Sessions whose plan index falls in the open share stop after one
		// or two observations with their next suggestion outstanding.
		stopAfter := 0
		if float64(i%10) < cc.OpenFraction*10 {
			stopAfter = 1 + i%2
		}
		if err := managerSession(m, p, ev, &th, &rec, stopAfter, nil); err != nil {
			return nil, err
		}
		if st, err := m.Get(p.ID); err != nil {
			return nil, err
		} else if st.Done {
			if err := finishSession(m, p, &rec, rec.experiments); err != nil {
				return nil, err
			}
			if p.Warm {
				rec.experiments++ // the default profile its fingerprint came from
			}
			img.closed = append(img.closed, rec)
		} else {
			img.open = append(img.open, p)
		}
	}
	sort.Slice(img.open, func(i, j int) bool { return img.open[i].ID < img.open[j].ID })

	// The crash: every acknowledged append is already fsynced, so the
	// files as they stand are what a kill -9 leaves.
	mt := m.Metrics()
	img.walBytes, img.walEvents, img.observations = mt.Store.WALBytes, mt.Store.WALEvents, mt.Observations
	if err := copyDir(live, img.dir); err != nil {
		return nil, err
	}
	for _, p := range img.open {
		h, err := m.History(p.ID)
		if err != nil {
			return nil, err
		}
		img.digests[p.ID] = historyDigest(h)
	}
	// The life the crashed sessions would have had.
	for _, p := range img.open {
		var rec sessionRec
		id := p.ID
		ev, _, _, err := resumedEvaluator(m, p)
		if err != nil {
			return nil, err
		}
		if err := managerSession(m, p, ev, &th, &rec, 0, func(c conf.Config) { img.tail[id] = append(img.tail[id], c) }); err != nil {
			return nil, err
		}
	}
	return img, nil
}

// resumedEvaluator is the client's simulator stream of an open session,
// positioned past the experiments the client had run before the crash: one
// per recorded evaluation, plus a warm session's default profile. It also
// returns those two counts.
func resumedEvaluator(m *service.Manager, p plan) (ev *tune.Evaluator, evals, experiments int, err error) {
	st, err := m.Get(p.ID)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("%s: status: %w", p.ID, err)
	}
	evals, experiments = st.Evals, st.Evals
	if p.Warm {
		experiments++
	}
	ev = evaluatorFor(p)
	ev.Resume(experiments, 0)
	return ev, evals, experiments, nil
}

func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// recoverRep is the timing of one measured repetition.
type recoverRep struct {
	openS, handoffMs, promoteMs, snapshotMs, reopenMs float64
	recs                                              []sessionRec
}

// promoteAndExtract walks the fail-over path on a follower's copy of the
// log: fence the replica, replay it into a hand-off package, and hold the
// package against what was open at the crash.
func promoteAndExtract(img *crashImage, base string, rep *recoverRep) error {
	replicas := filepath.Join(base, "replicas")
	if err := copyDir(img.dir, filepath.Join(replicas, recoverNode)); err != nil {
		return err
	}
	set, err := replica.New(replica.Options{Self: "follower", Dir: replicas})
	if err != nil {
		return err
	}
	t0 := time.Now()
	dir, err := set.Promote(recoverNode)
	rep.promoteMs = float64(time.Since(t0)) / 1e6
	set.Close()
	if err != nil {
		return fmt.Errorf("promote: %w", err)
	}
	t0 = time.Now()
	hand, err := service.ExtractHandoff(dir, recoverNode)
	rep.handoffMs = float64(time.Since(t0)) / 1e6
	if err != nil {
		return fmt.Errorf("extract handoff: %w", err)
	}
	if len(hand.Sessions) != len(img.open) {
		return fmt.Errorf("handoff returned %d sessions, %d were open at the crash", len(hand.Sessions), len(img.open))
	}
	for i, hs := range hand.Sessions {
		if hs.ID != img.open[i].ID {
			return fmt.Errorf("handoff session %d is %s, want %s", i, hs.ID, img.open[i].ID)
		}
		if d := historyDigest(hs.History); d != img.digests[hs.ID] {
			return fmt.Errorf("handoff history of %s differs from the pre-crash history", hs.ID)
		}
	}
	return nil
}

// recoverOnce replays a fresh copy of the crash image and walks the three
// paths that read a log: crash replay (OpenFile + Open), promotion
// (replica.Set.Promote + ExtractHandoff), and compaction followed by a
// re-open. After the replay it resumes every open session to its stopping
// rule through the recovered manager and holds each suggestion against
// what the original manager suggested.
func recoverOnce(img *crashImage, root string, n int, th *thinker, tr *tracer, reg *obs.Registry, epoch time.Time) (*recoverRep, error) {
	rep := &recoverRep{}
	base := filepath.Join(root, fmt.Sprintf("rep%d", n))
	defer os.RemoveAll(base)

	// An untraced run checks the promotion path once; only a traced run
	// needs its timing from every repetition.
	if tr != nil || n == 0 {
		if err := promoteAndExtract(img, base, rep); err != nil {
			return nil, err
		}
	}

	// Crash replay.
	data := filepath.Join(base, "data")
	if err := copyDir(img.dir, data); err != nil {
		return nil, err
	}
	t0 := time.Now()
	m, err := openManager(data, reg, tr)
	rep.openS = time.Since(t0).Seconds()
	if err != nil {
		return nil, fmt.Errorf("crash replay: %w", err)
	}
	closed := false
	defer func() {
		if !closed {
			m.Close()
		}
	}()
	if got := m.Len(); got != len(img.open) {
		return nil, fmt.Errorf("replay restored %d live sessions, %d were open at the crash", got, len(img.open))
	}
	for _, p := range img.open {
		h, err := m.History(p.ID)
		if err != nil {
			return nil, fmt.Errorf("%s: lost in replay: %w", p.ID, err)
		}
		if historyDigest(h) != img.digests[p.ID] {
			return nil, fmt.Errorf("%s: replayed history differs from the pre-crash history", p.ID)
		}
	}

	// Resume: the recovered tuners must carry on exactly where they were.
	for _, p := range img.open {
		rec := sessionRec{plan: p, started: int64(time.Since(epoch))}
		ev, evalsBefore, pre, err := resumedEvaluator(m, p)
		if err != nil {
			return nil, err
		}
		want := img.tail[p.ID]
		k := 0
		var mismatch error
		err = managerSession(m, p, ev, th, &rec, 0, func(c conf.Config) {
			if mismatch == nil && (k >= len(want) || want[k] != c) {
				mismatch = fmt.Errorf("%s: suggestion %d after recovery differs from the uncrashed manager's", p.ID, k)
			}
			k++
		})
		if err == nil {
			err = mismatch
		}
		if err == nil && k != len(want) {
			err = fmt.Errorf("%s: %d suggestions after recovery, the uncrashed manager made %d", p.ID, k, len(want))
		}
		if err != nil {
			return nil, err
		}
		resumed := rec.experiments
		rec.experiments += pre
		if err := finishSession(m, p, &rec, evalsBefore+resumed); err != nil {
			return nil, err
		}
		rec.done = int64(time.Since(epoch))
		rep.recs = append(rep.recs, rec)
	}

	// Compaction, then a re-open from the compacted state.
	t0 = time.Now()
	err = m.Snapshot()
	rep.snapshotMs = float64(time.Since(t0)) / 1e6
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	m.Close()
	closed = true
	t0 = time.Now()
	m2, err := openManager(data, obs.NewRegistry(), nil)
	rep.reopenMs = float64(time.Since(t0)) / 1e6
	if err != nil {
		return nil, fmt.Errorf("re-open from snapshot: %w", err)
	}
	left := m2.Len()
	m2.Close()
	if left != 0 {
		return nil, fmt.Errorf("%d sessions alive after every one was closed and compacted", left)
	}
	return rep, nil
}

// runRecover is the harness of recover_replay.
func runRecover(cc caseConfig, o runOpts) (*result, error) {
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
	var setup []float64
	var orc *oracle
	var img *crashImage
	for rep := 0; rep < cc.SetupReps; rep++ {
		t0 := time.Now()
		orc = newOracle()
		if img, err = buildCrashImage(cc, o.seed, root, rep); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", cc.Name, err)
		}
		setup = append(setup, time.Since(t0).Seconds())
	}
	if len(img.open) == 0 || len(img.open) == cc.Sessions {
		return nil, fmt.Errorf("%s: %d of %d sessions open at the crash; want some of each", cc.Name, len(img.open), cc.Sessions)
	}

	runtime.GC()
	reg := obs.NewRegistry()
	start := time.Now()
	deadline := start.Add(o.duration())
	switchAt := start.Add(time.Duration(untracedShare * float64(o.duration())))
	var (
		reps      []*recoverRep
		think     thinker
		switchRep = -1
		memBefore runtime.MemStats
		stBefore  map[string]obs.Snapshot
	)
	cpu0 := processCPU()
	for n := 0; time.Now().Before(deadline) || n < 2; n++ {
		if tr != nil && switchRep < 0 && n > 0 && !time.Now().Before(switchAt) {
			switchRep = n
			runtime.ReadMemStats(&memBefore)
			stBefore = reg.Snapshots()
			tr.on.Store(true)
		}
		rep, err := recoverOnce(img, root, n, &think, tr, reg, start)
		if err != nil {
			return nil, fmt.Errorf("%s: repetition %d: %w", cc.Name, n, err)
		}
		reps = append(reps, rep)
	}
	end := time.Now()
	cpu := processCPU() - cpu0

	var recs []sessionRec
	var opens []float64
	for _, rep := range reps {
		recs = append(recs, rep.recs...)
		opens = append(opens, rep.openS)
		for i := range rep.recs {
			res.attempted += len(rep.recs[i].suggests) + len(rep.recs[i].observes) + 2
		}
	}
	// Quality and experiments are scored over every session of the log,
	// once: those that finished before the crash and — every repetition
	// resumes them the same way — the first repetition's resumed ones.
	scored := append(append([]sessionRec(nil), img.closed...), reps[0].recs...)
	ratios := orc.quality(scored, 1)

	if tr == nil {
		t := sessionTotals{recs: recs, start: start, cpu: cpu, thinkCPU: think.cpu, setup: setup, scored: scored, ratios: ratios}
		// The step here is an observation brought back by crash replay.
		res.fillEndToEnd(t, len(reps)*int(img.observations), float64(img.observations)/stats.Median(opens))
		res.samples["steps_per_s"] = len(opens)
		res.notef("repetitions=%d sessions_in_log=%d open_at_crash=%d recover_s_median=%.4f wal_bytes_per_observe=%.2f",
			len(reps), img.sessions, len(img.open), stats.Median(opens), float64(img.walBytes)/float64(img.observations))
		return res, nil
	}

	if switchRep < 0 {
		return nil, fmt.Errorf("%s: the run ended before tracing was switched on", cc.Name)
	}
	var memAfter runtime.MemStats
	runtime.ReadMemStats(&memAfter)
	if o.traceOut != "" {
		if err := tr.writeTo(o.traceOut); err != nil {
			return nil, err
		}
	}
	res.fillRecoverLayers(img, reps, switchRep, think, end.Sub(start), tr.snapshot(),
		stageDeltas([]map[string]obs.Snapshot{stBefore}, []map[string]obs.Snapshot{reg.Snapshots()}),
		memBefore, memAfter, orc)
	return res, nil
}

// fillRecoverLayers reports what each layer cost on the read side.
func (r *result) fillRecoverLayers(img *crashImage, reps []*recoverRep, switchRep int, think thinker, wall time.Duration,
	spans []span, st map[string]histDelta, before, after runtime.MemStats, orc *oracle) {
	traced, plain := reps[switchRep:], reps[:switchRep]
	var recs []sessionRec
	var opens, handoffs, promotes, snaps, reopens, plainOpens []float64
	for _, rep := range traced {
		recs = append(recs, rep.recs...)
		opens = append(opens, rep.openS*1e3)
		handoffs = append(handoffs, rep.handoffMs)
		promotes = append(promotes, rep.promoteMs)
		snaps = append(snaps, rep.snapshotMs)
		reopens = append(reopens, rep.reopenMs)
	}
	for _, rep := range plain {
		plainOpens = append(plainOpens, rep.openS*1e3)
	}
	r.fillPolicies(sessionTotals{recs: recs, ratios: orc.quality(traced[0].recs, 1)})
	r.fillThink(think, wall)

	r.setN("service.recover_ms", stats.Median(opens), len(opens))
	r.setN("service.handoff_extract_ms", stats.Median(handoffs), len(handoffs))
	r.setN("replica.promote_ms", stats.Median(promotes), len(promotes))
	r.setN("service.snapshot_ms", stats.Median(snaps), len(snaps))
	r.setN("service.reopen_compacted_ms", stats.Median(reopens), len(reopens))
	loads, compacts := spanDurations(spans, "store.load"), spanDurations(spans, "store.compact")
	r.setN("store.load_ms", stats.Median(loads)/1e3, len(loads))
	r.setN("store.compact_ms", stats.Median(compacts)/1e3, len(compacts))
	r.set("store.compactions", float64(len(compacts)))
	if replay := stats.Median(opens) - stats.Median(loads)/1e3; replay > 0 {
		// Replay proper: rebuilding every session's tuner from the events
		// the store handed over.
		r.set("service.replay_events_per_s", float64(img.walEvents)/(replay/1e3))
	}
	r.set("store.wal_bytes_per_event", float64(img.walBytes)/float64(img.walEvents))
	r.set("store.wal_bytes_per_observe", float64(img.walBytes)/float64(img.observations))

	appends := spanDurations(spans, "store.append")
	r.setN("store.append_us_per_event", stats.Mean(appends), len(appends))
	r.setN("store.flush_wait_us_per_event", st["wal.flush_wait"].usPerCall(), int(st["wal.flush_wait"].count))
	r.setN("service.create_us_per_call", st["service.create"].usPerCall(), int(st["service.create"].count))
	r.setN("service.suggest_us_per_call", st["service.suggest"].usPerCall(), int(st["service.suggest"].count))
	r.setN("service.observe_us_per_call", st["service.observe"].usPerCall(), int(st["service.observe"].count))
	r.setN("bo.acquisition_us_per_call", st["acquisition"].usPerCall(), int(st["acquisition"].count))
	r.setN("gp.append_us_per_call", st["surrogate.append"].usPerCall(), int(st["surrogate.append"].count))
	r.setN("gp.refit_us_per_call", st["surrogate.refit"].usPerCall(), int(st["surrogate.refit"].count))
	if n := st["surrogate.refit"].count; n > 0 {
		r.set("gp.appends_per_refit", float64(st["surrogate.append"].count)/float64(n))
	}
	var suggests, observes []float64
	for i := range recs {
		suggests = append(suggests, recs[i].suggests...)
		observes = append(observes, recs[i].observes...)
	}
	r.setN("client.suggest_p50_us", stats.Median(suggests), len(suggests))
	r.setN("client.observe_p50_us", stats.Median(observes), len(observes))
	r.setN("client.suggest_p99_us", stats.Percentile(suggests, 99), len(suggests))
	r.setN("client.observe_p99_us", stats.Percentile(observes, 99), len(observes))
	r.set("client.suggest_samples", float64(len(suggests)))
	r.set("client.observe_samples", float64(len(observes)))

	if calls := len(suggests) + len(observes); calls > 0 {
		r.set("process.allocs_per_op", float64(after.Mallocs-before.Mallocs)/float64(calls))
		r.set("process.alloc_bytes_per_op", float64(after.TotalAlloc-before.TotalAlloc)/float64(calls))
	}
	r.set("process.gc_cycles", float64(after.NumGC-before.NumGC))
	r.set("process.gc_pause_ms", float64(after.PauseTotalNs-before.PauseTotalNs)/1e6)
	if base := stats.Median(plainOpens); base > 0 {
		r.setN("process.tracing_overhead_pct", (stats.Median(opens)/base-1)*100, len(plainOpens))
	}
	r.notef("traced_repetitions=%d untraced_repetitions=%d sessions_in_log=%d open_at_crash=%d",
		len(traced), len(plain), img.sessions, len(img.open))
}
