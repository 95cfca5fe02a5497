package loadgen

import (
	"bufio"
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
	"os"
	"sync"
	"sync/atomic"
	"time"

	"relm/internal/obs"
	"relm/internal/profile"
	"relm/internal/service"
	"relm/internal/wire"
)

// Options configures a Driver. Zero values select the documented
// defaults.
type Options struct {
	// Target is the base URL of the tier under test — a relm-router front
	// door or a single relm-serve node.
	Target string
	// RunID namespaces this run's session IDs ("lg-<RunID>-<index>"), so
	// the same trace can be replayed repeatedly against a durable cluster
	// without ID collisions. Default: 6 random hex bytes.
	RunID string
	// Concurrency bounds the session worker pool (default 32).
	Concurrency int
	// RequestTimeout is the per-request deadline (default 10s).
	RequestTimeout time.Duration
	// SlowKeep is how many slowest requests are kept with their trace IDs
	// (default 8).
	SlowKeep int
	// Stats is the canned workload profile attached to relm observations
	// and warm-start creates (default: a representative Table 6 profile).
	Stats *profile.Stats
	// Logf, when non-nil, receives progress lines during the run.
	Logf func(format string, args ...any)
	// AckPath, when non-empty, appends one JSON line per acknowledged
	// create/observe/close to this file — the durability ledger a chaos
	// run's invariant checker compares against the surviving WALs.
	AckPath string
}

// Ack is one acknowledged state-changing request, as written to AckPath.
// N is the observation's 1-based ordinal within its session (0 for
// create/close): an acked (session, N) must be recoverable from the WALs.
type Ack struct {
	Op         string  `json:"op"`
	Session    string  `json:"session"`
	N          int     `json:"n,omitempty"`
	RuntimeSec float64 `json:"runtime_sec,omitempty"`
}

// cannedStats is a representative Table 6 profile: plausible cache/shuffle
// footprints with full-GC evidence, so relm sessions complete their
// analytic pipeline and warm-start creates carry a matchable fingerprint.
func cannedStats() *profile.Stats {
	return &profile.Stats{
		N: 1, MhMB: 8192, CPUAvg: 0.62, DiskAvg: 0.18,
		MiMB: 310, McMB: 2400, MsMB: 180, MuMB: 420,
		P: 2, H: 0.85, S: 0.04, HadFullGC: true, CoresPerNode: 8,
	}
}

// errKey indexes the error breakdown.
type errKey struct{ stage, kind string }

// Driver replays a Trace against a target over HTTP. One Driver runs one
// trace; build a fresh one per run.
type Driver struct {
	opts   Options
	base   *url.URL // opts.Target as wire.ParseBase read it
	client wire.Client
	hists  map[string]*obs.Histogram

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

	ackMu sync.Mutex
	ackF  *os.File
	ackW  *bufio.Writer
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
	if opts.Concurrency <= 0 {
		opts.Concurrency = 32
	}
	if opts.RequestTimeout <= 0 {
		opts.RequestTimeout = 10 * time.Second
	}
	if opts.SlowKeep == 0 {
		opts.SlowKeep = 8
	}
	if opts.Stats == nil {
		opts.Stats = cannedStats()
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
	if opts.AckPath != "" {
		f, err := os.Create(opts.AckPath)
		if err != nil {
			return nil, fmt.Errorf("loadgen: ack log: %w", err)
		}
		d.ackF, d.ackW = f, bufio.NewWriter(f)
	}
	return d, nil
}

// ack appends one line to the ack log. Only called after the server
// answered with the expected success status — the request is durable by
// the service's contract, so losing it is an invariant violation.
func (d *Driver) ack(op, session string, n int, runtimeSec float64) {
	if d.ackW == nil {
		return
	}
	line, _ := json.Marshal(Ack{Op: op, Session: session, N: n, RuntimeSec: runtimeSec})
	d.ackMu.Lock()
	d.ackW.Write(line)
	d.ackW.WriteByte('\n')
	d.ackMu.Unlock()
}

// closeAckLog flushes and closes the ack log (no-op without AckPath).
func (d *Driver) closeAckLog() error {
	if d.ackW == nil {
		return nil
	}
	d.ackMu.Lock()
	defer d.ackMu.Unlock()
	if err := d.ackW.Flush(); err != nil {
		d.ackF.Close()
		return fmt.Errorf("loadgen: flush ack log: %w", err)
	}
	if err := d.ackF.Close(); err != nil {
		return fmt.Errorf("loadgen: close ack log: %w", err)
	}
	return nil
}

func (d *Driver) logf(format string, args ...any) {
	if d.opts.Logf != nil {
		d.opts.Logf(format, args...)
	}
}

// Run replays the trace: an open-loop dispatcher releases sessions at
// their recorded offsets into a bounded worker pool. It returns the
// assembled report; the error is non-nil only when the context was
// canceled before the trace finished (the partial report is still
// returned).
func (d *Driver) Run(ctx context.Context, tr *Trace) (*Report, error) {
	defer d.client.Close()
	start := time.Now()
	jobs := make(chan TraceSession, len(tr.Sessions))
	var wg sync.WaitGroup
	for w := 0; w < d.opts.Concurrency; w++ {
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
					int(time.Since(start).Seconds()), d.dispatched.Load(), len(tr.Sessions),
					d.finished.Load(), d.errCount.Load())
			}
		}
	}()

	// Open-loop dispatch: arrivals follow the trace clock, never the
	// completion rate. The jobs channel is deep enough to hold the whole
	// trace, so a saturated worker pool delays session starts (visible as
	// sched.lag) without distorting the arrival schedule of later
	// sessions.
	var runErr error
dispatch:
	for _, s := range tr.Sessions {
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
	if err := d.closeAckLog(); err != nil && runErr == nil {
		runErr = err
	}
	return d.report(tr, start, wall), runErr
}

// runSession drives one traced session's full lifecycle. Any unexpected
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
		create.Stats = d.opts.Stats
		create.DefaultRuntimeSec = 240
	}
	ok := true
	if _, k := d.do(ctx, StageCreate, http.MethodPost, "/v1/sessions", id, &create, nil, http.StatusCreated); !k {
		d.failed.Add(1)
		return
	}
	d.ack("create", id, 0, 0)

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
			obsReq.Stats = d.opts.Stats
		}
		if _, k := d.do(ctx, StageObserve, http.MethodPost, "/v1/sessions/"+id+"/observe", id, &obsReq, nil, http.StatusOK); !k {
			ok = false
			break
		}
		d.ack("observe", id, i+1, obsReq.RuntimeSec)
	}

	if _, k := d.do(ctx, StageClose, http.MethodDelete, "/v1/sessions/"+id, id, nil, nil, http.StatusNoContent); !k {
		ok = false
	} else {
		d.ack("close", id, 0, 0)
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
	status, hdr, buf, err := d.client.Do(ctx, t0.Add(d.opts.RequestTimeout), method, d.base.Host, d.base.Path+path, "", "application/json", body, 8<<20)
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

// trackSlow keeps the SlowKeep slowest successful requests.
func (d *Driver) trackSlow(stage, session string, elapsed time.Duration, traceID string) {
	ms := float64(elapsed) / 1e6
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.slow) < d.opts.SlowKeep {
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
func (d *Driver) report(tr *Trace, start time.Time, wall time.Duration) *Report {
	r := &Report{
		Scenario:  tr.Header.Scenario,
		Seed:      tr.Header.Seed,
		Target:    d.opts.Target,
		RunID:     d.opts.RunID,
		StartedAt: start.UTC(),
		WallSec:   wall.Seconds(),
		Sessions: SessionCounts{
			Total:     len(tr.Sessions),
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
