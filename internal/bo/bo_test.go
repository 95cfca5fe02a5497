package bo

import (
	"math"
	"testing"
	"testing/quick"

	"relm/internal/conf"
	"relm/internal/gp"
	"relm/internal/sim/cluster"
	"relm/internal/sim/workload"
	"relm/internal/tune"
)

func TestExpectedImprovementProperties(t *testing.T) {
	// Mean far below the incumbent with no noise improves by the gap.
	if ei := ExpectedImprovement(5, 1e-18, 10); math.Abs(ei-5) > 1e-6 {
		t.Fatalf("deterministic EI = %v, want 5", ei)
	}
	// Mean above the incumbent with no variance: no improvement.
	if ei := ExpectedImprovement(15, 1e-18, 10); ei != 0 {
		t.Fatalf("EI above incumbent = %v", ei)
	}
	// Variance creates hope even above the incumbent.
	if ei := ExpectedImprovement(11, 4, 10); ei <= 0 {
		t.Fatalf("EI with uncertainty = %v, want > 0", ei)
	}
}

// Property: EI is non-negative and increases with variance.
func TestEIMonotoneInVariance(t *testing.T) {
	f := func(m, tau float64) bool {
		mean := math.Mod(math.Abs(nz(m)), 100)
		incumbent := math.Mod(math.Abs(nz(tau)), 100)
		lo := ExpectedImprovement(mean, 1, incumbent)
		hi := ExpectedImprovement(mean, 9, incumbent)
		return lo >= 0 && hi >= lo-1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func nz(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 1
	}
	return v
}

func TestRunBootstrapsWithPaperLHS(t *testing.T) {
	ev := tune.NewEvaluator(cluster.A(), workload.SVM(), 1)
	if _, found := tune.Drive(NewTuner(ev.Space, Options{Seed: 1, UsePaperLHS: true, MaxIterations: 2, MinNewSamples: 1}, nil, nil), ev); !found {
		t.Fatal("no best found")
	}
	if ev.Evals() < 4 {
		t.Fatalf("bootstrap missing: %d evals", ev.Evals())
	}
	hist := ev.History()
	want := tune.PaperLHS(ev.Space)
	for i := range want {
		if hist[i].Config != want[i] {
			t.Fatalf("bootstrap sample %d = %v, want %v", i, hist[i].Config, want[i])
		}
	}
}

func TestRunImprovesOnDefault(t *testing.T) {
	ev := tune.NewEvaluator(cluster.A(), workload.SVM(), 2)
	def := ev.Eval(ev.Space.Default())
	best, found := tune.Drive(NewTuner(ev.Space, Options{Seed: 2, UsePaperLHS: true}, nil, nil), ev)
	if !found {
		t.Fatal("no best")
	}
	if best.Objective > def.Objective {
		t.Fatalf("BO best %v worse than default %v", best.Objective, def.Objective)
	}
}

func TestStoppingRuleBoundsIterations(t *testing.T) {
	ev := tune.NewEvaluator(cluster.A(), workload.SVM(), 4)
	tune.Drive(NewTuner(ev.Space, Options{Seed: 4, MaxIterations: 6, MinNewSamples: 2}, nil, nil), ev)
	if ev.Evals() > 4+6 {
		t.Fatalf("evaluations exceeded bootstrap+cap: %d", ev.Evals())
	}
}

func TestExtraFeaturesAreConsulted(t *testing.T) {
	ev := tune.NewEvaluator(cluster.A(), workload.KMeans(), 5)
	calls := 0
	_, found := tune.Drive(NewTuner(ev.Space, Options{Seed: 5, MaxIterations: 3, MinNewSamples: 1},
		func(x []float64, cfg conf.Config) []float64 {
			calls++
			return []float64{cfg.CacheCapacity}
		}, nil), ev)
	if calls == 0 {
		t.Fatal("Extra hook never consulted")
	}
	if !found {
		t.Fatal("run with extra features found nothing")
	}
}

func TestPenaltyShapesAcquisition(t *testing.T) {
	// A penalty that forbids most of the space should still leave the
	// optimizer functional.
	ev := tune.NewEvaluator(cluster.A(), workload.SVM(), 6)
	_, found := tune.Drive(NewTuner(ev.Space, Options{Seed: 6, MaxIterations: 4, MinNewSamples: 1}, nil,
		func(x []float64, _ conf.Config) float64 {
			if x[0] > 0.5 {
				return 0.01
			}
			return 1
		}), ev)
	if !found {
		t.Fatal("penalized run found nothing")
	}
}

// TestRFSurrogateDropIn: a full-model override (the Random-Forest ablation
// in internal/rf is the real one) plugs in through Options.Surrogate; here a
// trivial constant surrogate is accepted and consulted.
func TestRFSurrogateDropIn(t *testing.T) {
	ev := tune.NewEvaluator(cluster.A(), workload.WordCount(), 7)
	model := &constSurrogate{}
	_, found := tune.Drive(NewTuner(ev.Space, Options{
		Seed: 7, MaxIterations: 3, MinNewSamples: 1,
		Surrogate: model,
	}, nil, nil), ev)
	if !found {
		t.Fatal("custom surrogate run found nothing")
	}
	if model.stats.Fits == 0 || model.predicts == 0 {
		t.Fatalf("override never trained or never predicted: %+v, %d predictions", model.stats, model.predicts)
	}
}

// constSurrogate is a gp.Surrogate test double predicting the mean of its
// training targets everywhere.
type constSurrogate struct {
	ys       []float64
	stats    gp.SurrogateStats
	predicts int
}

func (c *constSurrogate) SetData(_ [][]float64, ys []float64) error {
	c.ys = append(c.ys[:0], ys...)
	c.stats.Fits++
	return nil
}

func (c *constSurrogate) PredictInto([]float64, *gp.Scratch) (float64, float64) {
	c.predicts++
	return avg(c.ys), 1
}

func (c *constSurrogate) PredictBatch(xs [][]float64, means, vars []float64, _ *gp.Scratch) {
	for i := range xs {
		means[i], vars[i] = c.PredictInto(xs[i], nil)
	}
}

func (c *constSurrogate) Stats() gp.SurrogateStats { return c.stats }

func avg(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
