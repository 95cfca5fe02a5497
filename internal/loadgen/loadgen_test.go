package loadgen

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"relm/internal/obs"
	"relm/internal/service"
)

func testScenario(name string) *Scenario {
	return &Scenario{
		Name:     name,
		Seed:     42,
		Sessions: 50,
		Arrival:  Arrival{Process: ArrivalConstant, RatePerSec: 500},
		Lifetime: Lifetime{Dist: LifetimeFixed, MeanIterations: 3},
	}
}

func TestScenarioValidateDefaults(t *testing.T) {
	s := &Scenario{Name: "d", Sessions: 10}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.Arrival.Process != ArrivalConstant || s.Arrival.RatePerSec != 10 {
		t.Fatalf("arrival defaults wrong: %+v", s.Arrival)
	}
	if s.Lifetime.Dist != LifetimeFixed || s.Lifetime.MeanIterations != 4 ||
		s.Lifetime.MinIterations != 1 || s.Lifetime.MaxIterations != 64 {
		t.Fatalf("lifetime defaults wrong: %+v", s.Lifetime)
	}
	if len(s.Backends) != 1 || s.Backends["bo"] != 1 {
		t.Fatalf("backend default wrong: %v", s.Backends)
	}
	if len(s.Workloads) != 5 || len(s.Clusters) != 1 {
		t.Fatalf("pool defaults wrong: %v / %v", s.Workloads, s.Clusters)
	}
	if s.Concurrency != 32 || s.RequestTimeoutMS != 10000 {
		t.Fatalf("driver defaults wrong: %d / %d", s.Concurrency, s.RequestTimeoutMS)
	}
}

func TestScenarioValidateRejects(t *testing.T) {
	cases := []Scenario{
		{Sessions: 1}, // no name
		{Name: "x"},   // no sessions
		{Name: "x", Sessions: 1, Arrival: Arrival{Process: "burst"}},
		{Name: "x", Sessions: 1, Arrival: Arrival{Process: ArrivalRamp}},   // ramp without target
		{Name: "x", Sessions: 1, Arrival: Arrival{RampToPerSec: 5}},        // ramp target without ramp
		{Name: "x", Sessions: 1, Backends: map[string]float64{"spark": 1}}, // unknown backend
		{Name: "x", Sessions: 1, Backends: map[string]float64{"bo": -1}},   // negative weight
		{Name: "x", Sessions: 1, WarmFraction: 1.5},                        // bad fraction
		{Name: "x", Sessions: 1, Lifetime: Lifetime{MinIterations: 5, MaxIterations: 2}},
	}
	for i, sc := range cases {
		if err := sc.Validate(); err == nil {
			t.Errorf("case %d: scenario %+v validated, want error", i, sc)
		}
	}
}

// TestPoissonInterArrivalMean: with a fixed seed, the empirical mean
// inter-arrival of a Poisson load must sit within a few percent of
// 1/rate.
func TestPoissonInterArrivalMean(t *testing.T) {
	sc := &Scenario{
		Name:     "poisson",
		Seed:     7,
		Sessions: 5000,
		Arrival:  Arrival{Process: ArrivalPoisson, RatePerSec: 50},
	}
	sessions, err := Generate(sc)
	if err != nil {
		t.Fatal(err)
	}
	n := len(sessions)
	meanNs := float64(sessions[n-1].AtNs) / float64(n-1)
	wantNs := 1e9 / 50
	if rel := math.Abs(meanNs-wantNs) / wantNs; rel > 0.05 {
		t.Fatalf("poisson mean inter-arrival %.0fns, want %.0fns ±5%% (off by %.1f%%)", meanNs, wantNs, rel*100)
	}
	// Exponential inter-arrivals have CV ≈ 1; a constant process has 0.
	// This guards against accidentally wiring Poisson to the constant path.
	var sum, sumSq float64
	prev := int64(0)
	for _, s := range sessions[1:] {
		gap := float64(s.AtNs - prev)
		prev = s.AtNs
		sum += gap
		sumSq += gap * gap
	}
	mean := sum / float64(n-1)
	cv := math.Sqrt(sumSq/float64(n-1)-mean*mean) / mean
	if cv < 0.9 || cv > 1.1 {
		t.Fatalf("poisson inter-arrival CV = %.3f, want ≈1", cv)
	}
}

// TestRampArrivalAccelerates: a ramp's second half must arrive faster
// than its first half.
func TestRampArrivalAccelerates(t *testing.T) {
	sc := &Scenario{
		Name:     "ramp",
		Seed:     3,
		Sessions: 1000,
		Arrival:  Arrival{Process: ArrivalRamp, RatePerSec: 10, RampToPerSec: 100},
	}
	sessions, err := Generate(sc)
	if err != nil {
		t.Fatal(err)
	}
	mid := sessions[len(sessions)/2].AtNs
	last := sessions[len(sessions)-1].AtNs
	if firstHalf, secondHalf := mid, last-mid; secondHalf >= firstHalf {
		t.Fatalf("ramp second half took %dns >= first half %dns", secondHalf, firstHalf)
	}
}

// generatedDigests are SHA-256 digests of the checked-in scenarios'
// sessions, one fixed-format line each, as the generator has always
// derived them. A change here means every load those scenarios describe
// has changed.
var generatedDigests = map[string]string{
	"smoke": "3e93ce013710b3e688f9ec99dfff751bec5ceac9d69737f85ae5d24dcfa73f01",
	"soak":  "ba11daaea51ae75417f3d99efc354a4d2d46b8c96b4803fa037cc2f631f55ee4",
}

// TestGenerateIsDeterministic: the scenario is the whole record of a load,
// so the same scenario + seed must generate the same sessions, another
// seed other sessions, and the checked-in scenarios the sessions they
// always have.
func TestGenerateIsDeterministic(t *testing.T) {
	sc := testScenario("rt")
	sc.Arrival = Arrival{Process: ArrivalPoisson, RatePerSec: 100}
	sc.Lifetime = Lifetime{Dist: LifetimeGeometric, MeanIterations: 5}
	sc.Backends = map[string]float64{"relm": 1, "bo": 2, "gbo": 1, "ddpg": 0.5}
	sc.WarmFraction = 0.5
	sc.Clusters = []string{"A", "B"}
	gen := func(seed uint64) []TraceSession {
		cp := *sc
		cp.Seed = seed
		sessions, err := Generate(&cp)
		if err != nil {
			t.Fatal(err)
		}
		return sessions
	}
	first := gen(sc.Seed)
	if !reflect.DeepEqual(first, gen(sc.Seed)) {
		t.Fatal("two generations from the same scenario+seed differ")
	}
	if reflect.DeepEqual(first, gen(sc.Seed+1)) {
		t.Fatal("a different seed generated identical sessions")
	}

	for name, want := range generatedDigests {
		sc, err := LoadScenario("../../scripts/scenarios/" + name + ".json")
		if err != nil {
			t.Fatal(err)
		}
		sessions, err := Generate(sc)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		for _, s := range sessions {
			fmt.Fprintf(h, "%d %d %s %s %s %d %d %t\n", s.Index, s.AtNs, s.Backend, s.Workload, s.Cluster, s.Seed, s.Iters, s.Warm)
		}
		if got := fmt.Sprintf("%x", h.Sum(nil)); got != want {
			t.Errorf("%s.json generates %d sessions digesting to %s, want %s", name, len(sessions), got, want)
		}
	}
}

// TestReportPercentilesMatchHistogram: the report's per-stage summaries
// must be exactly the obs.Histogram digests of the recorded latencies —
// same buckets, same interpolation.
func TestReportPercentilesMatchHistogram(t *testing.T) {
	h := obs.NewHistogram()
	durs := []time.Duration{
		500 * time.Nanosecond, time.Microsecond, 3 * time.Microsecond,
		100 * time.Microsecond, time.Millisecond, 4 * time.Millisecond,
		50 * time.Millisecond, time.Second,
	}
	for _, d := range durs {
		h.Record(d)
	}
	snap := h.Snapshot()

	// JSON round trip preserves the exact bucket state.
	back := snap.JSON().Snapshot()
	if back != snap {
		t.Fatalf("HistJSON round trip lost state:\n got %+v\nwant %+v", back, snap)
	}

	// MergeHists of two halves equals the whole.
	h1, h2 := obs.NewHistogram(), obs.NewHistogram()
	for i, d := range durs {
		if i%2 == 0 {
			h1.Record(d)
		} else {
			h2.Record(d)
		}
	}
	merged := obs.MergeHists(h1.Snapshot().JSON(), h2.Snapshot().JSON())
	if merged != snap {
		t.Fatalf("MergeHists diverged from single histogram:\n got %+v\nwant %+v", merged, snap)
	}

	sum := snap.Summarize()
	for _, q := range []struct {
		name string
		got  float64
		p    float64
	}{
		{"p50", sum.P50Us, 0.50},
		{"p90", sum.P90Us, 0.90},
		{"p99", sum.P99Us, 0.99},
		{"p999", sum.P999Us, 0.999},
	} {
		want := float64(snap.Quantile(q.p)) / 1e3
		if q.got != want {
			t.Errorf("%s = %.3fµs, want %.3fµs", q.name, q.got, want)
		}
	}
	if sum.Count != uint64(len(durs)) {
		t.Errorf("count = %d, want %d", sum.Count, len(durs))
	}
}

func startService(t testing.TB) *httptest.Server {
	t.Helper()
	m, err := service.Open(service.Options{NodeID: "lg-test", Workers: 2, TTL: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(service.NewHandler(m))
	t.Cleanup(func() {
		srv.Close()
		m.Close()
	})
	return srv
}

// TestDriverEndToEnd drives a mixed-backend scenario against a real
// service.Manager over httptest and expects a clean report: every
// session completed, zero errors, and per-stage histograms populated.
func TestDriverEndToEnd(t *testing.T) {
	srv := startService(t)
	sc := testScenario("e2e")
	sc.Backends = map[string]float64{"relm": 1, "bo": 1, "gbo": 1, "ddpg": 1}
	sc.WarmFraction = 0.5
	sc.Concurrency, sc.RequestTimeoutMS = 16, 5000
	sessions, err := Generate(sc)
	if err != nil {
		t.Fatal(err)
	}
	fullOps := 0 // every session's create, Iters suggests and observes, and close
	for _, s := range sessions {
		fullOps += 2 + 2*s.Iters
	}

	d, err := NewDriver(Options{Target: srv.URL, RunID: "t1"})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := d.Run(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	if rep.UnexpectedErrors() != 0 {
		t.Fatalf("report has %d errors: %+v", rep.UnexpectedErrors(), rep.Errors)
	}
	if rep.Sessions.Completed != sc.Sessions || rep.Sessions.Failed != 0 {
		t.Fatalf("sessions = %+v, want all %d completed", rep.Sessions, sc.Sessions)
	}
	// relm's analytic pipeline finishes before the generated 3 iterations,
	// so a mixed load must show early-done sessions.
	if rep.Sessions.DoneEarly == 0 {
		t.Fatal("expected some relm sessions to report done early")
	}
	if rep.Ops.Total > fullOps || rep.Ops.Total < 2*sc.Sessions {
		t.Fatalf("ops total %d outside [%d, %d]", rep.Ops.Total, 2*sc.Sessions, fullOps)
	}
	for _, stage := range []string{StageCreate, StageSuggest, StageObserve, StageClose, SchedLagStage} {
		if rep.Stages[stage].Count == 0 {
			t.Errorf("stage %q has no samples", stage)
		}
	}
	if rep.Stages[StageCreate].Count != uint64(sc.Sessions) {
		t.Errorf("create count = %d, want %d", rep.Stages[StageCreate].Count, sc.Sessions)
	}
	if rep.SessionsPerSec <= 0 || rep.OpsPerSec <= 0 {
		t.Errorf("rates not positive: %+v", rep)
	}
	if len(rep.Slowest) == 0 {
		t.Error("no slowest requests retained")
	}
	if rep.Table() == "" {
		t.Error("empty table rendering")
	}
}

// TestDriverErrorAccounting: a target that rejects every request must
// produce a failed-session, status-coded error breakdown — not a hang or
// a false success.
func TestDriverErrorAccounting(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "backend on fire", http.StatusInternalServerError)
	}))
	defer srv.Close()

	sc := testScenario("err")
	sc.Sessions = 10
	sc.Concurrency, sc.RequestTimeoutMS = 4, 1000
	d, err := NewDriver(Options{Target: srv.URL, RunID: "t2"})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := d.Run(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sessions.Failed != sc.Sessions || rep.Sessions.Completed != 0 {
		t.Fatalf("sessions = %+v, want all %d failed", rep.Sessions, sc.Sessions)
	}
	// Each session dies on its create; no retries, no close attempt.
	if rep.Ops.Errors != sc.Sessions {
		t.Fatalf("errors = %d, want %d", rep.Ops.Errors, sc.Sessions)
	}
	if len(rep.Errors) != 1 || rep.Errors[0].Kind != "status_500" || rep.Errors[0].Stage != StageCreate {
		t.Fatalf("error breakdown = %+v, want one create/status_500 row", rep.Errors)
	}
	if rep.Errors[0].Sample == "" {
		t.Fatal("error sample not captured")
	}
}

// TestDriverTimeoutKind: a stalled target shows up as timeouts, bounded
// by the per-request deadline rather than hanging the run.
func TestDriverTimeoutKind(t *testing.T) {
	stall := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-stall:
		case <-r.Context().Done():
		}
	}))
	defer srv.Close()
	defer close(stall) // unblock handlers before srv.Close waits on them

	sc := testScenario("timeout")
	sc.Sessions = 3
	sc.Concurrency, sc.RequestTimeoutMS = 3, 50
	d, err := NewDriver(Options{Target: srv.URL, RunID: "t3"})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := d.Run(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ops.Timeouts != sc.Sessions {
		t.Fatalf("timeouts = %d, want %d (errors %+v)", rep.Ops.Timeouts, sc.Sessions, rep.Errors)
	}
}

// BenchmarkLoadgenDrive drives sessions end-to-end (create →
// suggest/observe ×2 → close) against an in-process service over
// loopback HTTP — the harness's own overhead plus the service hot path.
func BenchmarkLoadgenDrive(b *testing.B) {
	srv := startService(b)
	sc := &Scenario{
		Name:        "bench",
		Seed:        1,
		Sessions:    b.N,
		Arrival:     Arrival{Process: ArrivalConstant, RatePerSec: 1e6},
		Lifetime:    Lifetime{Dist: LifetimeFixed, MeanIterations: 2},
		Concurrency: 8,
	}
	d, err := NewDriver(Options{Target: srv.URL, RunID: "bench"})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	rep, err := d.Run(context.Background(), sc)
	if err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	if rep.UnexpectedErrors() != 0 {
		b.Fatalf("%d errors: %+v", rep.UnexpectedErrors(), rep.Errors)
	}
}

// BenchmarkLoadgenDriveGenerate measures pure session generation.
func BenchmarkLoadgenDriveGenerate(b *testing.B) {
	sc := &Scenario{
		Name:     "gen",
		Seed:     1,
		Sessions: b.N,
		Arrival:  Arrival{Process: ArrivalPoisson, RatePerSec: 1000},
		Lifetime: Lifetime{Dist: LifetimeGeometric, MeanIterations: 6},
		Backends: map[string]float64{"relm": 1, "bo": 1, "gbo": 1, "ddpg": 1},
	}
	b.ReportAllocs()
	b.ResetTimer()
	sessions, err := Generate(sc)
	if err != nil {
		b.Fatal(err)
	}
	if len(sessions) != b.N {
		b.Fatal("short load")
	}
}
