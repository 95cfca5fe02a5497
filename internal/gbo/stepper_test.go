package gbo

import (
	"math"
	"testing"

	"relm/internal/bo"
	"relm/internal/profile"
	"relm/internal/sim/cluster"
	"relm/internal/sim/workload"
	"relm/internal/tune"
)

// TestMetricsFiniteWithZeroStats: a guide model built from empty statistics
// (a remote runtime-only observation) must stay finite over the whole
// space, including shuffle workloads where every pool requirement is zero.
func TestMetricsFiniteWithZeroStats(t *testing.T) {
	cl := cluster.A()
	m := NewModel(cl, profile.Stats{})
	for _, wlName := range []string{"WordCount", "K-means"} {
		wl, _ := workload.ByName(wlName)
		sp := tune.NewSpace(cl, wl)
		for _, cfg := range sp.Grid() {
			q := m.Metrics(cfg)
			for i, v := range q {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("%s: q%d = %v for %v", wlName, i+1, v, cfg)
				}
			}
			for i, f := range m.ExtraFeatures(cfg) {
				if math.IsNaN(f) || math.IsInf(f, 0) {
					t.Fatalf("%s: feature %d = %v for %v", wlName, i, f, cfg)
				}
			}
		}
	}
}

// TestStepperRuntimeOnlyObservations drives incremental GBO with plain
// runtime reports; with no profile it must degrade to vanilla BO and still
// finish.
func TestStepperRuntimeOnlyObservations(t *testing.T) {
	cl := cluster.A()
	wl, _ := workload.ByName("WordCount")
	st := NewTuner(cl, tune.NewSpace(cl, wl), bo.Options{Seed: 3, MaxIterations: 3, MinNewSamples: 1})

	for i := 0; !st.Done() && i < 30; i++ {
		cfg := st.Suggest()
		st.Observe(tune.Sample{Config: cfg, RuntimeSec: 100 + float64(i%7)})
	}
	if !st.Done() {
		t.Fatal("never finished")
	}
	if st.Model() != nil {
		t.Fatal("model built with no statistics")
	}
	if _, ok := st.Best(); !ok {
		t.Fatal("no best")
	}
}

// TestGuideMaturationForcesSurrogateReselection: while observations are
// runtime-only, surrogate fits see zero guide features; the first profiled
// sample builds Q and rewrites every feature row retroactively, which the
// incremental surrogate must answer with a full hyperparameter
// re-selection (not a bogus append onto a stale factor).
func TestGuideMaturationForcesSurrogateReselection(t *testing.T) {
	cl := cluster.A()
	wl, _ := workload.ByName("K-means")
	ev := tune.NewEvaluator(cl, wl, 7)
	st := NewTuner(cl, ev.Space, bo.Options{Seed: 7, MaxIterations: 20, MinNewSamples: 20, EIFraction: -1})

	// Runtime-only observations past the bootstrap: fits happen with the
	// placeholder guide features.
	for i := 0; i < 7 && !st.Done(); i++ {
		cfg := st.Suggest()
		smp := ev.Eval(cfg)
		smp.Profile, smp.Stats = nil, nil // strip the profile
		st.Observe(smp)
	}
	if st.Model() != nil {
		t.Fatal("guide model built without statistics")
	}
	before := st.SurrogateInfo()
	if before.Fits == 0 || before.Appends == 0 {
		t.Fatalf("degraded phase: fits=%d appends=%d — want both nonzero", before.Fits, before.Appends)
	}

	// The first profiled observation matures Q.
	cfg := st.Suggest()
	st.Observe(ev.Eval(cfg))
	if st.Model() == nil {
		t.Fatal("guide model not built from profiled sample")
	}
	if after := st.SurrogateInfo(); after.Fits <= before.Fits {
		t.Fatalf("guide maturation must force a full re-selection: fits %d -> %d", before.Fits, after.Fits)
	}
}
