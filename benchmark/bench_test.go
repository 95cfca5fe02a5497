package main

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"relm/internal/stats"
)

// The benchmark's quantiles are internal/stats's; what it needs of them is
// pinned here: interpolation between order statistics of the raw samples,
// no bucketing, input left alone.
func TestQuantileIsExact(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 3}, {100, 5}, {25, 2}, {12.5, 1.5}, {99, 4.96}} {
		if got := stats.Percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("Percentile reordered its input")
	}
	if got := stats.Median([]float64{1, 2}); got != 1.5 {
		t.Errorf("median of two = %v, want 1.5", got)
	}
	if got := stats.Median(nil); got != 0 {
		t.Errorf("median of nothing = %v, want 0", got)
	}
	// A 10% move of the middle sample is a 10% move of the median: no
	// bucketing in between.
	if got := stats.Median([]float64{100, 110, 300}); got != 110 {
		t.Errorf("median = %v, want 110", got)
	}
}

func TestBlockRateIgnoresABurst(t *testing.T) {
	start := time.Unix(0, 0)
	var times []time.Time
	at := start
	for i := 0; i < 400; i++ {
		at = at.Add(10 * time.Millisecond) // 100 events per second
		if i == 200 {
			at = at.Add(2 * time.Second) // one stall
		}
		times = append(times, at)
	}
	ones := make([]float64, len(times))
	for i := range ones {
		ones[i] = 1
	}
	if got := blockRate(times, ones, start); math.Abs(got-100) > 1e-6 {
		t.Errorf("blockRate = %v, want 100: one stalled block must not move the median", got)
	}
	plain := float64(len(times)) / times[len(times)-1].Sub(start).Seconds()
	if plain > 70 {
		t.Fatalf("test is vacuous: the plain rate %v is not moved by the stall", plain)
	}
	// Too few events to cut blocks: the plain rate.
	if got := blockRate(times[:5], ones[:5], start); math.Abs(got-100) > 1e-6 {
		t.Errorf("blockRate of 5 events = %v, want 100", got)
	}
	if got := blockRate(nil, nil, start); got != 0 {
		t.Errorf("blockRate of nothing = %v, want 0", got)
	}
	// Work is what is rated, not completions: doubling every weight doubles
	// the rate.
	for i := range ones {
		ones[i] = 2
	}
	if got := blockRate(times, ones, start); math.Abs(got-200) > 1e-6 {
		t.Errorf("blockRate of double work = %v, want 200", got)
	}
}

func TestSameSeedSameRequests(t *testing.T) {
	for _, name := range []string{"serve_light", "serve_bayes"} {
		cc, err := loadCase(name)
		if err != nil {
			t.Fatal(err)
		}
		a, b, c := requestHash(cc, 7, 60), requestHash(cc, 7, 60), requestHash(cc, 8, 60)
		// The mix is a fixed design: whatever the seed, the same backends on
		// the same applications in the same order.
		for i := 0; i < 60; i++ {
			p, q := planSession(cc, 7, phaseMeasure, i), planSession(cc, 8, phaseMeasure, i)
			if p.Backend != q.Backend || p.Combo != q.Combo || p.Seed == q.Seed {
				t.Fatalf("%s: session %d: %+v vs %+v", name, i, p, q)
			}
		}
		if a != b {
			t.Errorf("%s: one seed gave two request sequences", name)
		}
		if a == c {
			t.Errorf("%s: two seeds gave one request sequence", name)
		}
	}
	if a, b := offlinePlan(7, 41), offlinePlan(7, 41); a != b {
		t.Error("tune_offline: one seed gave two plans")
	}
	if a, b := offlinePlan(7, 41), offlinePlan(8, 41); a.Seed == b.Seed {
		t.Error("tune_offline: two seeds gave one plan")
	}
	// The four policies of a round tune the same simulated application.
	if a, b := offlinePlan(7, 40), offlinePlan(7, 43); a.SimSeed != b.SimSeed || a.Combo != b.Combo || a.Backend == b.Backend {
		t.Errorf("tune_offline: runs 40 and 43 should share a combo and simulator seed: %+v %+v", a, b)
	}
}

// benchmarkJSON is the part of ../BENCHMARK.json the declarations in
// metrics.go must agree with.
type benchmarkJSON struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestBenchmarkJSONMatchesDeclarations(t *testing.T) {
	buf, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(buf, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(bj.Workloads), len(workloadNames))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q here", i, w.Name, workloadNames[i])
		}
		if _, err := loadCase(w.Name); err != nil {
			t.Error(err)
		}
		if _, err := os.Stat(filepath.Join("cases", w.Name, "WHY.md")); err != nil {
			t.Errorf("workload %s has no WHY.md: %v", w.Name, err)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	seen := map[string]bool{}
	check := func(kind string, i int, name, unit, better string, d metricDef) {
		if name != d.Name || unit != d.Unit || better != d.Better {
			t.Errorf("%s metric %d is %s/%s/%s in BENCHMARK.json, %s/%s/%s here", kind, i, name, unit, better, d.Name, d.Unit, d.Better)
		}
		if !nameRE.MatchString(name) || !unitRE.MatchString(unit) {
			t.Errorf("%s metric %q (%q) is outside the allowed characters", kind, name, unit)
		}
		if seen[name] {
			t.Errorf("metric name %q is used twice", name)
		}
		seen[name] = true
	}
	if len(bj.EndToEnd) != len(endToEnd) || len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d+%d metrics, the benchmark declares %d+%d",
			len(bj.EndToEnd), len(bj.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range bj.EndToEnd {
		check("end_to_end", i, m.Name, m.Unit, m.Better, endToEnd[i])
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for i, m := range bj.PerLayer {
		check("per_layer", i, m.Name, m.Unit, m.Better, perLayer[i])
	}
	if len(perLayer) > 128 || len(endToEnd) > 16 {
		t.Errorf("%d end-to-end and %d per-layer metrics exceed the contract's 16 and 128", len(endToEnd), len(perLayer))
	}
}

// smoke runs one workload at a small scale and checks the result prints
// every declared metric once, finite, under an allowed name.
func smoke(t *testing.T, name string, o runOpts) *result {
	t.Helper()
	res, err := runWorkload(name, o)
	if err != nil {
		t.Fatalf("%s (traced=%v): %v", name, o.traced, err)
	}
	defs, err := res.declared()
	if err != nil {
		t.Fatal(err)
	}
	want := endToEnd
	if o.traced {
		want = perLayer
	}
	if len(defs) != len(want) {
		t.Fatalf("%s: %d metrics declared, want %d", name, len(defs), len(want))
	}
	for _, d := range defs {
		v, ok := res.metrics[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("%s: metric %s missing or not finite (%v)", name, d.Name, v)
		}
		if !o.traced && v <= 0 {
			t.Errorf("%s: end-to-end metric %s is %v; it must never be 0", name, d.Name, v)
		}
	}
	for got := range res.metrics {
		if !nameRE.MatchString(got) {
			t.Errorf("%s: metric name %q is outside the allowed characters", name, got)
		}
		found := false
		for _, d := range want {
			found = found || d.Name == got
		}
		if !found {
			t.Errorf("%s (traced=%v): metric %s is measured but not declared", name, o.traced, got)
		}
	}
	if res.failed != 0 || res.attempted == 0 {
		t.Errorf("%s: attempted %d, failed %d", name, res.attempted, res.failed)
	}
	return res
}

func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("boots clusters and runs tuners for about a minute")
	}
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			smoke(t, name, runOpts{seed: 11, seconds: 2, traced: traced, scale: 0.05})
		}
	}
}

// The serve workloads are built to differ: the tuner stages are nothing on
// serve_light and a large share of observe on serve_bayes; and the span
// tree must be a tree — children inside their parents, so self times are
// non-negative and add up to the router span.
func TestTracedServeDecomposes(t *testing.T) {
	if testing.Short() {
		t.Skip("boots clusters for a few seconds")
	}
	shares := map[string]float64{}
	for _, name := range []string{"serve_light", "serve_bayes"} {
		out := filepath.Join(t.TempDir(), "spans.jsonl")
		res := smoke(t, name, runOpts{seed: 12, seconds: 3, traced: true, scale: 0.05, traceOut: out})
		shares[name] = res.metrics["bo.acquisition_share_pct"] + res.metrics["gp.share_pct"]

		f, err := os.Open(out)
		if err != nil {
			t.Fatal(err)
		}
		var spans []span
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			var s span
			if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
				t.Fatal(err)
			}
			spans = append(spans, s)
		}
		f.Close()
		dec := decompose(spans)
		all := dec["all"]
		if all.n < 100 {
			t.Fatalf("%s: only %d complete requests traced", name, all.n)
		}
		for op, b := range dec {
			self := b.routerSelf() + b.serviceSelf() + b.store
			if math.Abs(self-b.router) > 0.01*b.router {
				t.Errorf("%s %s: self times sum to %v, router span is %v", name, op, self, b.router)
			}
			if b.unattributed() < 0 || b.routerSelf() < 0 || b.serviceSelf() < 0 {
				t.Errorf("%s %s: a child outlasted its parent: %+v", name, op, *b)
			}
			if attributed := b.unattributed() + b.routerSelf() + b.serviceSelf() + b.store; math.Abs(attributed-b.client) > 0.05*b.client {
				t.Errorf("%s %s: %v of %v µs of client latency attributed", name, op, attributed, b.client)
			}
		}
		for _, s := range spans {
			if s.Name == "store.append" && s.Request != "" && requestOp(s.Request) == "status" {
				t.Errorf("%s: a status request journaled an event: %+v", name, s)
			}
		}
	}
	if shares["serve_light"] >= 5 {
		t.Errorf("serve_light: tuner stages are %.1f%% of observe time, want < 5%%", shares["serve_light"])
	}
	if shares["serve_bayes"] <= 15 {
		t.Errorf("serve_bayes: tuner stages are only %.1f%% of observe time", shares["serve_bayes"])
	}
}

// recover_replay is a fixed amount of work, so the numbers that depend on
// the seed alone must repeat to the last digit.
func TestRecoverRepeatsExactly(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and replays a WAL twice")
	}
	o := runOpts{seed: 13, seconds: 1, scale: 0.05}
	a, b := smoke(t, "recover_replay", o), smoke(t, "recover_replay", o)
	for _, name := range []string{"quality_pct", "experiments_per_session"} {
		if a.metrics[name] != b.metrics[name] {
			t.Errorf("%s: %v then %v for one seed", name, a.metrics[name], b.metrics[name])
		}
	}
}
