package loadgen

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"text/tabwriter"
	"time"

	"relm/internal/obs"
)

// Stage names of the session lifecycle, in lifecycle order. SchedLagStage
// additionally times dispatch lag: how far behind its trace offset a
// session actually started (worker-pool queueing under overload).
const (
	StageCreate  = "create"
	StageSuggest = "suggest"
	StageObserve = "observe"
	StageClose   = "close"

	SchedLagStage = "sched.lag"
)

// reportStages is the rendering order of the per-stage tables.
var reportStages = []string{StageCreate, StageSuggest, StageObserve, StageClose, SchedLagStage}

// SessionCounts breaks down session outcomes.
type SessionCounts struct {
	Total int `json:"total"`
	// Completed sessions ran create → loop → close without an unexpected
	// error (a backend reporting done before the trace's iteration count
	// still completes).
	Completed int `json:"completed"`
	Failed    int `json:"failed"`
	// DoneEarly counts completed sessions whose backend reported done
	// before the traced iteration count (expected for relm's 2–3-step
	// pipeline).
	DoneEarly int `json:"done_early,omitempty"`
}

// OpCounts breaks down individual HTTP requests.
type OpCounts struct {
	Total    int `json:"total"`
	Errors   int `json:"errors"`
	Timeouts int `json:"timeouts"`
}

// ErrorCount is one (stage, kind) cell of the error breakdown. Kind is
// "timeout", "transport", or "status_<code>"; Sample carries one example
// message and SampleTrace the X-Relm-Trace ID of an offending response
// when one was seen, so the failure is inspectable via /v1/traces.
type ErrorCount struct {
	Stage       string `json:"stage"`
	Kind        string `json:"kind"`
	Count       int    `json:"count"`
	Sample      string `json:"sample,omitempty"`
	SampleTrace string `json:"sample_trace,omitempty"`
}

// SlowOp is one of the slowest successful requests of the run, kept with
// its trace ID so a p999 outlier can be explained span-by-span via
// GET /v1/traces on the router or backend that served it.
type SlowOp struct {
	Stage   string  `json:"stage"`
	Session string  `json:"session"`
	Ms      float64 `json:"ms"`
	Trace   string  `json:"trace,omitempty"`
}

// Report is the run's result: JSON on disk (LOAD.json by default in
// the CLI), human table via Table.
type Report struct {
	Scenario  string    `json:"scenario"`
	Seed      uint64    `json:"seed"`
	Target    string    `json:"target"`
	RunID     string    `json:"run_id"`
	StartedAt time.Time `json:"started_at"`
	WallSec   float64   `json:"wall_sec"`

	Sessions SessionCounts `json:"sessions"`
	Ops      OpCounts      `json:"ops"`

	// SessionsPerSec and OpsPerSec are sustained rates over the whole
	// run: completed work divided by wall-clock time.
	SessionsPerSec float64 `json:"sessions_per_sec"`
	OpsPerSec      float64 `json:"ops_per_sec"`

	// Stages holds the percentile digests (µs) per lifecycle stage;
	// StageHist the raw power-of-two buckets the digests were computed
	// from, mergeable across runs with obs.MergeHists.
	Stages    map[string]obs.Summary  `json:"stages"`
	StageHist map[string]obs.HistJSON `json:"stage_hist"`

	Errors  []ErrorCount `json:"errors,omitempty"`
	Slowest []SlowOp     `json:"slowest,omitempty"`
}

// UnexpectedErrors is the run's total error count — the number a CI soak
// asserts to be zero.
func (r *Report) UnexpectedErrors() int { return r.Ops.Errors }

// WriteFile writes the report as indented JSON.
func (r *Report) WriteFile(path string) error {
	buf, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("loadgen: encode report: %w", err)
	}
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		return fmt.Errorf("loadgen: write report: %w", err)
	}
	return nil
}

// Table renders the human summary: throughput, per-stage percentiles,
// error and slow-request breakdowns.
func (r *Report) Table() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "scenario %s (seed %d) against %s — run %s\n", r.Scenario, r.Seed, r.Target, r.RunID)
	fmt.Fprintf(&sb, "%d/%d sessions completed (%d failed, %d done early), %d ops, %d errors (%d timeouts) in %.1fs\n",
		r.Sessions.Completed, r.Sessions.Total, r.Sessions.Failed, r.Sessions.DoneEarly,
		r.Ops.Total, r.Ops.Errors, r.Ops.Timeouts, r.WallSec)
	fmt.Fprintf(&sb, "sustained: %.1f sessions/sec, %.1f ops/sec\n\n", r.SessionsPerSec, r.OpsPerSec)

	w := tabwriter.NewWriter(&sb, 2, 8, 2, ' ', 0)
	fmt.Fprintln(w, "STAGE\tCOUNT\tMEAN\tP50\tP90\tP99\tP999")
	for _, stage := range reportStages {
		s, ok := r.Stages[stage]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "%s\t%d\t%s\t%s\t%s\t%s\t%s\n", stage, s.Count,
			fmtUs(s.MeanUs), fmtUs(s.P50Us), fmtUs(s.P90Us), fmtUs(s.P99Us), fmtUs(s.P999Us))
	}
	w.Flush()

	if len(r.Errors) > 0 {
		sb.WriteString("\nerrors:\n")
		for _, e := range r.Errors {
			fmt.Fprintf(&sb, "  %-8s %-14s ×%d", e.Stage, e.Kind, e.Count)
			if e.Sample != "" {
				fmt.Fprintf(&sb, "  e.g. %s", e.Sample)
			}
			if e.SampleTrace != "" {
				fmt.Fprintf(&sb, "  (trace %s)", e.SampleTrace)
			}
			sb.WriteByte('\n')
		}
	}
	if len(r.Slowest) > 0 {
		sb.WriteString("\nslowest requests (explain via GET /v1/traces?id=...):\n")
		for _, s := range r.Slowest {
			fmt.Fprintf(&sb, "  %-8s %8.1fms  session %s", s.Stage, s.Ms, s.Session)
			if s.Trace != "" {
				fmt.Fprintf(&sb, "  trace %s", s.Trace)
			}
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}

// fmtUs renders a microsecond figure with an adaptive unit.
func fmtUs(us float64) string {
	switch {
	case us >= 1e6:
		return fmt.Sprintf("%.2fs", us/1e6)
	case us >= 1e3:
		return fmt.Sprintf("%.1fms", us/1e3)
	default:
		return fmt.Sprintf("%.0fµs", us)
	}
}

// sortErrors orders the error breakdown most-frequent first, then by
// stage/kind for stable output.
func sortErrors(errs []ErrorCount) {
	sort.Slice(errs, func(i, j int) bool {
		if errs[i].Count != errs[j].Count {
			return errs[i].Count > errs[j].Count
		}
		if errs[i].Stage != errs[j].Stage {
			return errs[i].Stage < errs[j].Stage
		}
		return errs[i].Kind < errs[j].Kind
	})
}
