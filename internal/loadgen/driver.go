package loadgen

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/json"
	"errors"
	"fmt"
	"math/bits"
	mrand "math/rand/v2"
	"net/http"
	"net/url"
	"sync"
	"sync/atomic"
	"time"

	"relm/internal/obs"
	"relm/internal/profile"
	"relm/internal/service"
	"relm/internal/wire"
)

// Options configures a Driver. The load itself — its sessions, worker
// pool and request deadline — is the Scenario handed to Run.
type Options struct {
	// Target is the base URL of the tier under test — a relm-router front
	// door or a single relm-serve node.
	Target string
	// RunID namespaces this run's session IDs ("lg-<RunID>-<index>"), so
	// the same scenario can be driven repeatedly against a durable cluster
	// without ID collisions. Default: 6 random hex bytes.
	RunID string
	// Logf, when non-nil, receives progress lines during the run.
	Logf func(format string, args ...any)
}

// slowKeep is how many slowest requests a report keeps with their trace
// IDs.
const slowKeep = 8

// cannedStats is the workload profile attached to relm observations and
// warm-start creates: a representative Table 6 profile with plausible
// cache/shuffle footprints and full-GC evidence, so relm sessions complete
// their analytic pipeline and warm-start creates carry a matchable
// fingerprint.
var cannedStats = &profile.Stats{
	N: 1, MhMB: 8192, CPUAvg: 0.62, DiskAvg: 0.18,
	MiMB: 310, McMB: 2400, MsMB: 180, MuMB: 420,
	P: 2, H: 0.85, S: 0.04, HadFullGC: true, CoresPerNode: 8,
}

// errKey indexes the error breakdown.
type errKey struct{ stage, kind string }

// Driver drives a scenario's load against a target over HTTP. One Driver
// runs one scenario; build a fresh one per run.
type Driver struct {
	opts    Options
	base    *url.URL // opts.Target as wire.ParseBase read it
	client  wire.Client
	timeout time.Duration // the scenario's per-request deadline
	hists   map[string]*obs.Histogram

	ops      atomic.Int64
	errCount atomic.Int64
	timeouts atomic.Int64

	completed atomic.Int64
	failed    atomic.Int64
	doneEarly atomic.Int64

	dispatched atomic.Int64
	finished   atomic.Int64

	mu   sync.Mutex
	errs map[errKey]*ErrorCount
	slow []SlowOp
}

// NewDriver validates the options and builds a driver.
func NewDriver(opts Options) (*Driver, error) {
	base, err := wire.ParseBase(opts.Target)
	if err != nil {
		return nil, fmt.Errorf("loadgen: target: %w", err)
	}
	if opts.RunID == "" {
		var b [6]byte
		if _, err := rand.Read(b[:]); err != nil {
			return nil, fmt.Errorf("loadgen: mint run ID: %w", err)
		}
		opts.RunID = fmt.Sprintf("%x", b)
	}
	d := &Driver{
		opts:  opts,
		base:  base,
		hists: make(map[string]*obs.Histogram, len(reportStages)),
		errs:  make(map[errKey]*ErrorCount),
	}
	for _, stage := range reportStages {
		d.hists[stage] = obs.NewHistogram()
	}
	return d, nil
}

func (d *Driver) logf(format string, args ...any) {
	if d.opts.Logf != nil {
		d.opts.Logf(format, args...)
	}
}

// Run generates the scenario's sessions and drives them: an open-loop
// dispatcher releases each at its arrival offset into a worker pool of
// sc.Concurrency, every request under sc's deadline. It returns the
// assembled report; the error is non-nil when the scenario is invalid
// (no report) or the context was canceled before the run finished (the
// partial report is still returned).
func (d *Driver) Run(ctx context.Context, sc *Scenario) (*Report, error) {
	sessions, err := Generate(sc)
	if err != nil {
		return nil, err
	}
	defer d.client.Close()
	d.timeout = sc.RequestTimeout()
	start := time.Now()
	jobs := make(chan TraceSession, len(sessions))
	var wg sync.WaitGroup
	for w := 0; w < sc.Concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range jobs {
				if ctx.Err() != nil {
					continue // drain: the run was canceled
				}
				lag := time.Since(start.Add(time.Duration(s.AtNs)))
				if lag < 0 {
					lag = 0
				}
				d.hists[SchedLagStage].Record(lag)
				d.runSession(ctx, s)
				d.finished.Add(1)
			}
		}()
	}

	// Progress heartbeat for long soaks.
	hb := make(chan struct{})
	go func() {
		tick := time.NewTicker(5 * time.Second)
		defer tick.Stop()
		for {
			select {
			case <-hb:
				return
			case <-tick.C:
				d.logf("loadgen: t=+%ds dispatched %d/%d finished %d errors %d",
					int(time.Since(start).Seconds()), d.dispatched.Load(), len(sessions),
					d.finished.Load(), d.errCount.Load())
			}
		}
	}()

	// Open-loop dispatch: arrivals follow the generated clock, never the
	// completion rate. The jobs channel is deep enough to hold every
	// session, so a saturated worker pool delays session starts (visible
	// as sched.lag) without distorting the arrival schedule of later
	// sessions.
	var runErr error
dispatch:
	for _, s := range sessions {
		if wait := time.Until(start.Add(time.Duration(s.AtNs))); wait > 0 {
			select {
			case <-ctx.Done():
				runErr = ctx.Err()
				break dispatch
			case <-time.After(wait):
			}
		}
		jobs <- s
		d.dispatched.Add(1)
	}
	close(jobs)
	wg.Wait()
	close(hb)
	wall := time.Since(start)
	if runErr == nil && ctx.Err() != nil {
		runErr = ctx.Err()
	}
	return d.report(sc, start, wall), runErr
}

// runSession drives one generated session's full lifecycle. Any unexpected
// error fails the session and ends its loop early; a close is still
// attempted when the create succeeded, so failed sessions do not linger
// on the cluster.
func (d *Driver) runSession(ctx context.Context, s TraceSession) {
	id := fmt.Sprintf("lg-%s-%06d", d.opts.RunID, s.Index)
	rng := mrand.New(mrand.NewPCG(s.Seed, bits.RotateLeft64(s.Seed, 17)^0xda942042e4dd58b5))

	create := service.CreateRequest{
		ID:            id,
		Backend:       s.Backend,
		Workload:      s.Workload,
		Cluster:       s.Cluster,
		Seed:          s.Seed,
		MaxIterations: s.Iters + 1,
	}
	if s.Backend == "ddpg" {
		create.MaxSteps = s.Iters + 1
	}
	if s.Warm {
		create.WarmStart = true
		create.Stats = cannedStats
		create.DefaultRuntimeSec = 240
	}
	ok := true
	if _, k := d.do(ctx, StageCreate, http.MethodPost, "/v1/sessions", id, &create, nil, http.StatusCreated); !k {
		d.failed.Add(1)
		return
	}

	done := false
	for i := 0; i < s.Iters; i++ {
		var sug service.SuggestResponse
		if _, k := d.do(ctx, StageSuggest, http.MethodPost, "/v1/sessions/"+id+"/suggest", id, nil, &sug, http.StatusOK); !k {
			ok = false
			break
		}
		if sug.Done {
			done = true
			break
		}
		obsReq := service.ObserveRequest{
			Config: sug.Config,
			// Synthetic measurement: deterministic per session, slowly
			// improving, so incumbent/repository paths see realistic
			// monotone-ish progress.
			RuntimeSec: 180 + 60*rng.Float64() - 3*float64(i),
		}
		if s.Backend == "relm" {
			obsReq.Stats = cannedStats
		}
		if _, k := d.do(ctx, StageObserve, http.MethodPost, "/v1/sessions/"+id+"/observe", id, &obsReq, nil, http.StatusOK); !k {
			ok = false
			break
		}
	}

	if _, k := d.do(ctx, StageClose, http.MethodDelete, "/v1/sessions/"+id, id, nil, nil, http.StatusNoContent); !k {
		ok = false
	}
	if !ok {
		d.failed.Add(1)
		return
	}
	d.completed.Add(1)
	if done {
		d.doneEarly.Add(1)
	}
}

// do issues one request under the per-request deadline, records its
// latency — the whole exchange, round trip and body read — into the stage
// histogram on success, and books any failure into the error breakdown. It
// returns the response's X-Relm-Trace ID and whether the request succeeded.
func (d *Driver) do(ctx context.Context, stage, method, path, session string, in, out any, wantStatus int) (string, bool) {
	d.ops.Add(1)
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			d.recordError(stage, "encode", err.Error(), "")
			return "", false
		}
	}
	t0 := time.Now()
	status, hdr, buf, err := d.client.Do(ctx, t0.Add(d.timeout), method, d.base.Host, d.base.Path+path, "", "application/json", body, 8<<20)
	elapsed := time.Since(t0)
	traceID := hdr.Get(obs.TraceHeader)
	if err != nil {
		kind := "transport"
		if errors.Is(err, context.DeadlineExceeded) {
			kind = "timeout"
			d.timeouts.Add(1)
		}
		d.recordError(stage, kind, err.Error(), traceID)
		return traceID, false
	}
	if status != wantStatus {
		d.recordError(stage, fmt.Sprintf("status_%d", status), snippet(buf), traceID)
		return traceID, false
	}
	if out != nil {
		if err := json.Unmarshal(buf, out); err != nil {
			d.recordError(stage, "decode", err.Error(), traceID)
			return traceID, false
		}
	}
	d.hists[stage].Record(elapsed)
	d.trackSlow(stage, session, elapsed, traceID)
	return traceID, true
}

// snippet trims an error body for the report sample.
func snippet(buf []byte) string {
	s := string(bytes.TrimSpace(buf))
	if len(s) > 160 {
		s = s[:160] + "…"
	}
	if s == "" {
		s = "(empty body)"
	}
	return s
}

// recordError books one failed request into the (stage, kind) breakdown.
func (d *Driver) recordError(stage, kind, sample, traceID string) {
	d.errCount.Add(1)
	d.mu.Lock()
	defer d.mu.Unlock()
	k := errKey{stage, kind}
	e := d.errs[k]
	if e == nil {
		e = &ErrorCount{Stage: stage, Kind: kind, Sample: sample, SampleTrace: traceID}
		d.errs[k] = e
	}
	e.Count++
}

// trackSlow keeps the slowKeep slowest successful requests.
func (d *Driver) trackSlow(stage, session string, elapsed time.Duration, traceID string) {
	ms := float64(elapsed) / 1e6
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.slow) < slowKeep {
		d.slow = append(d.slow, SlowOp{Stage: stage, Session: session, Ms: ms, Trace: traceID})
		return
	}
	minIdx := 0
	for i, s := range d.slow {
		if s.Ms < d.slow[minIdx].Ms {
			minIdx = i
		}
	}
	if ms > d.slow[minIdx].Ms {
		d.slow[minIdx] = SlowOp{Stage: stage, Session: session, Ms: ms, Trace: traceID}
	}
}

// report assembles the run's Report.
func (d *Driver) report(sc *Scenario, start time.Time, wall time.Duration) *Report {
	r := &Report{
		Scenario:  sc.Name,
		Seed:      sc.Seed,
		Target:    d.opts.Target,
		RunID:     d.opts.RunID,
		StartedAt: start.UTC(),
		WallSec:   wall.Seconds(),
		Sessions: SessionCounts{
			Total:     sc.Sessions,
			Completed: int(d.completed.Load()),
			Failed:    int(d.failed.Load()),
			DoneEarly: int(d.doneEarly.Load()),
		},
		Ops: OpCounts{
			Total:    int(d.ops.Load()),
			Errors:   int(d.errCount.Load()),
			Timeouts: int(d.timeouts.Load()),
		},
		Stages:    make(map[string]obs.Summary),
		StageHist: make(map[string]obs.HistJSON),
	}
	if secs := wall.Seconds(); secs > 0 {
		r.SessionsPerSec = float64(r.Sessions.Completed) / secs
		r.OpsPerSec = float64(r.Ops.Total-r.Ops.Errors) / secs
	}
	for stage, h := range d.hists {
		snap := h.Snapshot()
		if snap.Count == 0 {
			continue
		}
		r.Stages[stage] = snap.Summarize()
		r.StageHist[stage] = snap.JSON()
	}
	d.mu.Lock()
	for _, e := range d.errs {
		r.Errors = append(r.Errors, *e)
	}
	slow := append([]SlowOp(nil), d.slow...)
	d.mu.Unlock()
	sortErrors(r.Errors)
	for i := 1; i < len(slow); i++ {
		for j := i; j > 0 && slow[j].Ms > slow[j-1].Ms; j-- {
			slow[j], slow[j-1] = slow[j-1], slow[j]
		}
	}
	r.Slowest = slow
	return r
}
