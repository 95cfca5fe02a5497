package main

import (
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"runtime"
	"sort"
	"time"

	"relm/internal/conf"
	"relm/internal/profile"
	"relm/internal/service"
	"relm/internal/sim/cluster"
	"relm/internal/sim/workload"
	"relm/internal/tune"
)

//go:embed cases/*/case.json
var caseFS embed.FS

// workloadNames is the permanent list of benchmark workloads, in run order.
var workloadNames = []string{"serve_light", "serve_bayes", "tune_offline", "recover_replay"}

// caseConfig is cases/<name>/case.json: the fixed shape of one workload.
// None of it is a knob of the program under test.
type caseConfig struct {
	Name string `json:"name"`
	// Kind selects the harness: "serve" (router + 2 durable nodes over
	// HTTP), "offline" (library tuners on the simulator), "recover"
	// (crash replay of a WAL built during set-up).
	Kind string `json:"kind"`
	// Backends weights the tuning policies of generated sessions.
	Backends map[string]int `json:"backends"`
	// WarmFraction of bo/gbo sessions profile the default configuration
	// first and ask for a warm start.
	WarmFraction float64 `json:"warm_fraction"`
	// Clients is the closed-loop client count (serve only).
	Clients int `json:"clients"`
	// WarmupSessions run unmeasured before the clock starts (serve only).
	WarmupSessions int `json:"warmup_sessions"`
	// Sessions is the WAL build size (recover only); OpenFraction of them
	// are left open at the crash.
	Sessions     int     `json:"sessions"`
	OpenFraction float64 `json:"open_fraction"`
	// SetupReps is how many times set-up runs; setup_s is their median.
	SetupReps int `json:"setup_reps"`
	// QualityEvery: every n-th session's recommendation is re-measured on
	// the held-out simulator seeds.
	QualityEvery int `json:"quality_every"`
}

func loadCase(name string) (caseConfig, error) {
	var c caseConfig
	buf, err := caseFS.ReadFile("cases/" + name + "/case.json")
	if err != nil {
		return c, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	if err := json.Unmarshal(buf, &c); err != nil {
		return c, fmt.Errorf("cases/%s/case.json: %w", name, err)
	}
	if c.Name != name {
		return c, fmt.Errorf("cases/%s/case.json names itself %q", name, c.Name)
	}
	return c, nil
}

// scaled shrinks the fixed work counts for smoke tests; 1 is the size of
// record.
func (c caseConfig) scaled(scale float64) caseConfig {
	shrink := func(n int) int {
		if n == 0 {
			return 0
		}
		return max(4, int(float64(n)*scale))
	}
	if scale < 1 {
		c.WarmupSessions = shrink(c.WarmupSessions)
		c.Sessions = shrink(c.Sessions)
		c.SetupReps = 1
	}
	return c
}

// combo is one (workload, cluster) pair of the paper's evaluation: the five
// Table 2 applications on clusters A and B.
type combo struct {
	wl workload.Spec
	cl cluster.Spec
	sp tune.Space
}

var combos = allCombos()

func allCombos() []combo {
	var out []combo
	for _, cl := range []cluster.Spec{cluster.A(), cluster.B()} {
		for _, wl := range workload.Benchmarks() {
			out = append(out, combo{wl: wl, cl: cl, sp: tune.NewSpace(cl, wl)})
		}
	}
	return out
}

// plan is one generated tuning session. Everything in it is a function of
// (seed, phase, index) alone.
type plan struct {
	Index   int
	ID      string
	Backend string
	Combo   int
	Seed    uint64 // the policy's seed, sent to the program
	SimSeed uint64 // the client's simulator stream, never sent
	Warm    bool
}

// phase keys keep the warm-up, measured and set-up session streams apart.
const (
	phaseWarmup  = 1
	phaseMeasure = 2
	phaseBuild   = 3
)

// planSession lays sessions out on a fixed design, so that the mix a run
// sees does not depend on its seed or on how far it gets: backends cycle in
// their case weights, and each full cycle moves on to the next (workload,
// cluster). Only the seeds and the warm draw come from the PCG stream of
// (seed, phase, index).
func planSession(c caseConfig, seed uint64, phase, i int) plan {
	var cycle []string
	for name, w := range c.Backends {
		for k := 0; k < w; k++ {
			cycle = append(cycle, name)
		}
	}
	sort.Strings(cycle)
	rng := rand.New(rand.NewPCG(seed, uint64(phase)<<32|uint64(i)))
	p := plan{
		Index:   i,
		ID:      fmt.Sprintf("bm-%d-%d-%d", seed, phase, i),
		Backend: cycle[i%len(cycle)],
		Combo:   (i / len(cycle)) % len(combos),
		Seed:    rng.Uint64() >> 1,
		SimSeed: rng.Uint64() >> 1,
	}
	warmDraw := rng.Float64()
	p.Warm = (p.Backend == "bo" || p.Backend == "gbo") && warmDraw < c.WarmFraction
	return p
}

// thinker is one client's simulator: it runs the experiments a tuning
// client would run on its cluster between requests. Its time is client
// think time, kept out of every request latency; its CPU is measured on
// the pinned thread so it can be taken out of the process total.
type thinker struct {
	simRuns   int
	simAborts int
	simWall   time.Duration
	profCalls int
	profWall  time.Duration
	cpu       time.Duration
}

func (t *thinker) add(o *thinker) {
	t.simRuns += o.simRuns
	t.simAborts += o.simAborts
	t.simWall += o.simWall
	t.profCalls += o.profCalls
	t.profWall += o.profWall
	t.cpu += o.cpu
}

// experiment stress-tests one configuration and derives its Table 6
// statistics, as the paper's client does after every suggestion.
func (t *thinker) experiment(ev *tune.Evaluator, cfg conf.Config) (tune.Sample, *profile.Stats) {
	runtime.LockOSThread()
	cpu0 := threadCPU()
	t0 := time.Now()
	smp := ev.Eval(cfg)
	t1 := time.Now()
	st := profile.Generate(smp.Profile)
	t2 := time.Now()
	t.cpu += threadCPU() - cpu0
	runtime.UnlockOSThread()
	t.simRuns++
	if smp.Result.Aborted {
		t.simAborts++
	}
	t.simWall += t1.Sub(t0)
	t.profCalls++
	t.profWall += t2.Sub(t1)
	return smp, &st
}

// evaluatorFor is the client-side simulator stream of one session.
func evaluatorFor(p plan) *tune.Evaluator {
	cb := combos[p.Combo]
	return tune.NewEvaluator(cb.cl, cb.wl, p.SimSeed)
}

// createBody is the request that opens p's session. A warm session first
// profiles the default configuration (on ev) and sends the fingerprint.
func createBody(p plan, cb combo, th *thinker, ev *tune.Evaluator) service.CreateRequest {
	req := service.CreateRequest{
		ID:       p.ID,
		Backend:  p.Backend,
		Workload: cb.wl.Name,
		Cluster:  cb.cl.Name,
		Seed:     p.Seed,
	}
	if p.Warm {
		smp, st := th.experiment(ev, cb.sp.Default())
		req.WarmStart = true
		req.Stats = st
		req.DefaultRuntimeSec = smp.RuntimeSec
	}
	return req
}

// requestHash digests the create bodies of the first n measured sessions:
// equal seeds must give equal hashes, different seeds different ones.
func requestHash(c caseConfig, seed uint64, n int) string {
	h := sha256.New()
	var th thinker
	for i := 0; i < n; i++ {
		p := planSession(c, seed, phaseMeasure, i)
		cb := combos[p.Combo]
		body, _ := json.Marshal(createBody(p, cb, &th, evaluatorFor(p)))
		h.Write(body)
	}
	return hex.EncodeToString(h.Sum(nil))
}
