package loadgen

import (
	"bytes"
	"context"
	"math"
	"net/http"
	"net/http/httptest"
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
// inter-arrival of a Poisson trace must sit within a few percent of
// 1/rate.
func TestPoissonInterArrivalMean(t *testing.T) {
	sc := &Scenario{
		Name:     "poisson",
		Seed:     7,
		Sessions: 5000,
		Arrival:  Arrival{Process: ArrivalPoisson, RatePerSec: 50},
	}
	tr, err := Generate(sc)
	if err != nil {
		t.Fatal(err)
	}
	n := len(tr.Sessions)
	meanNs := float64(tr.Sessions[n-1].AtNs) / float64(n-1)
	wantNs := 1e9 / 50
	if rel := math.Abs(meanNs-wantNs) / wantNs; rel > 0.05 {
		t.Fatalf("poisson mean inter-arrival %.0fns, want %.0fns ±5%% (off by %.1f%%)", meanNs, wantNs, rel*100)
	}
	// Exponential inter-arrivals have CV ≈ 1; a constant process has 0.
	// This guards against accidentally wiring Poisson to the constant path.
	var sum, sumSq float64
	prev := int64(0)
	for _, s := range tr.Sessions[1:] {
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

// TestRampArrivalAccelerates: a ramp trace's second half must arrive
// faster than its first half.
func TestRampArrivalAccelerates(t *testing.T) {
	sc := &Scenario{
		Name:     "ramp",
		Seed:     3,
		Sessions: 1000,
		Arrival:  Arrival{Process: ArrivalRamp, RatePerSec: 10, RampToPerSec: 100},
	}
	tr, err := Generate(sc)
	if err != nil {
		t.Fatal(err)
	}
	mid := tr.Sessions[len(tr.Sessions)/2].AtNs
	last := tr.Sessions[len(tr.Sessions)-1].AtNs
	if firstHalf, secondHalf := mid, last-mid; secondHalf >= firstHalf {
		t.Fatalf("ramp second half took %dns >= first half %dns", secondHalf, firstHalf)
	}
}

// TestTraceByteForByteReplay: the same scenario + seed must serialize to
// identical bytes, and a read-back trace must re-serialize to the same
// bytes again.
func TestTraceByteForByteReplay(t *testing.T) {
	sc := testScenario("rt")
	sc.Arrival = Arrival{Process: ArrivalPoisson, RatePerSec: 100}
	sc.Lifetime = Lifetime{Dist: LifetimeGeometric, MeanIterations: 5}
	sc.Backends = map[string]float64{"relm": 1, "bo": 2, "gbo": 1, "ddpg": 0.5}
	sc.WarmFraction = 0.5
	sc.Clusters = []string{"A", "B"}

	gen := func() []byte {
		cp := *sc
		tr, err := Generate(&cp)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := tr.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	first, second := gen(), gen()
	if !bytes.Equal(first, second) {
		t.Fatal("two generations from the same scenario+seed differ")
	}

	tr, err := ReadTrace(bytes.NewReader(first))
	if err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if _, err := tr.WriteTo(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, again.Bytes()) {
		t.Fatal("read-back trace re-serialized to different bytes")
	}

	// A different seed must actually change the bytes.
	sc.Seed++
	if bytes.Equal(first, gen()) {
		t.Fatal("different seed produced identical trace")
	}
}

func TestReadTraceRejects(t *testing.T) {
	if _, err := ReadTrace(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty trace accepted")
	}
	bad := []byte(`{"format":"not-a-trace/9","scenario":"x","seed":1,"sessions":0}` + "\n")
	if _, err := ReadTrace(bytes.NewReader(bad)); err == nil {
		t.Fatal("unknown format accepted")
	}
	short := []byte(`{"format":"` + TraceFormat + `","scenario":"x","seed":1,"sessions":2}` + "\n" +
		`{"i":0,"at_ns":0,"backend":"bo","workload":"SVM","cluster":"A","seed":1,"iters":1}` + "\n")
	if _, err := ReadTrace(bytes.NewReader(short)); err == nil {
		t.Fatal("truncated trace accepted")
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
	m := service.NewManager(service.Options{NodeID: "lg-test", Workers: 2, TTL: time.Hour})
	srv := httptest.NewServer(service.NewHandler(m))
	t.Cleanup(func() {
		srv.Close()
		m.Close()
	})
	return srv
}

// TestDriverEndToEnd replays a mixed-backend trace against a real
// service.Manager over httptest and expects a clean report: every
// session completed, zero errors, and per-stage histograms populated.
func TestDriverEndToEnd(t *testing.T) {
	srv := startService(t)
	sc := testScenario("e2e")
	sc.Backends = map[string]float64{"relm": 1, "bo": 1, "gbo": 1, "ddpg": 1}
	sc.WarmFraction = 0.5
	tr, err := Generate(sc)
	if err != nil {
		t.Fatal(err)
	}

	d, err := NewDriver(Options{
		Target: srv.URL, RunID: "t1", Concurrency: 16,
		RequestTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := d.Run(context.Background(), tr)
	if err != nil {
		t.Fatal(err)
	}
	if rep.UnexpectedErrors() != 0 {
		t.Fatalf("report has %d errors: %+v", rep.UnexpectedErrors(), rep.Errors)
	}
	if rep.Sessions.Completed != sc.Sessions || rep.Sessions.Failed != 0 {
		t.Fatalf("sessions = %+v, want all %d completed", rep.Sessions, sc.Sessions)
	}
	// relm's analytic pipeline finishes before the traced 3 iterations, so
	// a mixed trace must show early-done sessions.
	if rep.Sessions.DoneEarly == 0 {
		t.Fatal("expected some relm sessions to report done early")
	}
	if rep.Ops.Total > tr.Ops() || rep.Ops.Total < 2*sc.Sessions {
		t.Fatalf("ops total %d outside [%d, %d]", rep.Ops.Total, 2*sc.Sessions, tr.Ops())
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
	tr, err := Generate(sc)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDriver(Options{Target: srv.URL, RunID: "t2", Concurrency: 4, RequestTimeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := d.Run(context.Background(), tr)
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
	tr, err := Generate(sc)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDriver(Options{Target: srv.URL, RunID: "t3", Concurrency: 3, RequestTimeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := d.Run(context.Background(), tr)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ops.Timeouts != sc.Sessions {
		t.Fatalf("timeouts = %d, want %d (errors %+v)", rep.Ops.Timeouts, sc.Sessions, rep.Errors)
	}
}

// BenchmarkLoadgenDrive replays sessions end-to-end (create →
// suggest/observe ×2 → close) against an in-process service over
// loopback HTTP — the harness's own overhead plus the service hot path.
func BenchmarkLoadgenDrive(b *testing.B) {
	srv := startService(b)
	sc := &Scenario{
		Name:     "bench",
		Seed:     1,
		Sessions: b.N,
		Arrival:  Arrival{Process: ArrivalConstant, RatePerSec: 1e6},
		Lifetime: Lifetime{Dist: LifetimeFixed, MeanIterations: 2},
	}
	tr, err := Generate(sc)
	if err != nil {
		b.Fatal(err)
	}
	d, err := NewDriver(Options{Target: srv.URL, RunID: "bench", Concurrency: 8})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	rep, err := d.Run(context.Background(), tr)
	if err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	if rep.UnexpectedErrors() != 0 {
		b.Fatalf("%d errors: %+v", rep.UnexpectedErrors(), rep.Errors)
	}
}

// BenchmarkLoadgenDriveGenerate measures pure trace generation.
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
	tr, err := Generate(sc)
	if err != nil {
		b.Fatal(err)
	}
	if len(tr.Sessions) != b.N {
		b.Fatal("short trace")
	}
}
