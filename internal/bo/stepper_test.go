package bo

import (
	"math"
	"testing"

	"relm/internal/sim/cluster"
	"relm/internal/sim/workload"
	"relm/internal/tune"
)

// TestStepperUnsolicitedObserveKeepsSuggestion: an observation that doesn't
// match the outstanding suggestion joins the data but must not consume the
// suggestion — bootstrap design points are never dropped.
func TestStepperUnsolicitedObserveKeepsSuggestion(t *testing.T) {
	cl := cluster.A()
	wl, _ := workload.ByName("K-means")
	sp := tune.NewSpace(cl, wl)
	st := NewTuner(sp, Options{Seed: 1}, nil, nil)

	suggested := st.Suggest()
	other := sp.Build(3, 2, 0.3, 5)
	if other == suggested {
		other = sp.Build(4, 1, 0.7, 2)
	}
	st.Observe(tune.Sample{Config: other, RuntimeSec: 140})
	if got := st.Suggest(); got != suggested {
		t.Fatalf("unsolicited observe consumed the suggestion: %v -> %v", suggested, got)
	}
	st.Observe(tune.Sample{Config: suggested, RuntimeSec: 120})
	if got := st.Suggest(); got == suggested {
		t.Fatal("matching observe did not advance the suggestion")
	}
}

// TestStepperRemoteObservations drives the tuner with plain runtime
// reports — no simulator Result, X, or Objective — as a remote client
// would, and checks it still converges to a best.
func TestStepperRemoteObservations(t *testing.T) {
	cl := cluster.A()
	wl, _ := workload.ByName("SVM")
	sp := tune.NewSpace(cl, wl)
	st := NewTuner(sp, Options{Seed: 2, MaxIterations: 3, MinNewSamples: 1}, nil, nil)

	for i := 0; !st.Done() && i < 20; i++ {
		cfg := st.Suggest()
		st.Observe(tune.Sample{Config: cfg, RuntimeSec: 100 + 13*math.Sin(float64(i))})
	}
	if !st.Done() {
		t.Fatal("never finished")
	}
	best, ok := st.Best()
	if !ok || best.Objective <= 0 {
		t.Fatalf("best: ok=%v %+v", ok, best)
	}
}

// TestWarmStartSeedsStepper: a warm-started stepper suggests the prior's
// best configuration first (a confirmation run of the transferred
// optimum), drops the rest of the bootstrap, and stops in fewer
// evaluations than a cold session, with the prior joining the surrogate.
func TestWarmStartSeedsStepper(t *testing.T) {
	cl := cluster.A()
	wl, _ := workload.ByName("K-means")
	opts := Options{Seed: 5}

	evCold := tune.NewEvaluator(cl, wl, 9)
	cold := NewTuner(evCold.Space, opts, nil, nil)
	for !cold.Done() {
		cold.Observe(evCold.Eval(cold.Suggest()))
	}
	coldEvals := evCold.Evals()
	coldBest, ok := cold.Best()
	if !ok {
		t.Fatal("cold session found no incumbent")
	}

	prior := make([]PriorPoint, 0, coldEvals)
	for _, s := range evCold.History() {
		prior = append(prior, PriorPoint{X: s.X, Cfg: s.Config, Y: s.Objective})
	}

	evWarm := tune.NewEvaluator(cl, wl, 9)
	warm := NewTuner(evWarm.Space, opts, nil, nil)
	warm.WarmStart(prior)
	if got := warm.Suggest(); got != coldBest.Config {
		t.Fatalf("first warm suggestion = %+v, want transferred optimum %+v", got, coldBest.Config)
	}
	for !warm.Done() {
		warm.Observe(evWarm.Eval(warm.Suggest()))
	}
	if evWarm.Evals() >= coldEvals {
		t.Fatalf("warm start took %d evals, cold took %d — no savings", evWarm.Evals(), coldEvals)
	}
	warmBest, ok := warm.Best()
	if !ok {
		t.Fatal("warm session found no incumbent")
	}
	// The confirmation run re-measures the transferred optimum, so the warm
	// incumbent is at worst a re-draw of the cold one (simulator noise).
	if warmBest.Objective > coldBest.Objective*1.25 {
		t.Fatalf("warm best %.1f much worse than cold best %.1f", warmBest.Objective, coldBest.Objective)
	}
}

// TestIncrementalSurrogateSchedule: on the default path the surrogate
// absorbs most observations through O(n²) appends, re-selecting
// hyperparameters only on gp.Scheduled's schedule.
func TestIncrementalSurrogateSchedule(t *testing.T) {
	wl, _ := workload.ByName("SVM")
	ev := tune.NewEvaluator(cluster.A(), wl, 3)
	tn := NewTuner(ev.Space, Options{Seed: 7, MaxIterations: 30, MinNewSamples: 30, EIFraction: -1}, nil, nil)
	for i := 0; i < 24 && !tn.Done(); i++ {
		tn.Observe(ev.Eval(tn.Suggest()))
	}
	st := tn.SurrogateInfo()
	if st.Appends == 0 {
		t.Fatal("scheduled path recorded no incremental appends")
	}
	if st.Fits >= st.Appends {
		t.Fatalf("scheduled path: %d full fits vs %d appends — appends should dominate", st.Fits, st.Appends)
	}
}
