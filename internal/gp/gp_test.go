package gp

import (
	"math"
	"testing"
	"testing/quick"

	"relm/internal/linalg"
	"relm/internal/simrand"
	"relm/internal/stats"
)

func TestKernelBasics(t *testing.T) {
	k := RBF{Variance: 2, Length: []float64{1, 1}}
	x := []float64{0.3, 0.7}
	if got := k.Eval(x, x); math.Abs(got-2) > 1e-12 {
		t.Fatalf("k(x,x) = %v, want variance", got)
	}
	far := k.Eval([]float64{0, 0}, []float64{10, 10})
	near := k.Eval([]float64{0, 0}, []float64{0.1, 0.1})
	if far >= near {
		t.Fatal("RBF must decay with distance")
	}
}

func TestMatern52Basics(t *testing.T) {
	k := Matern52{Variance: 1, Length: []float64{0.5}}
	if got := k.Eval([]float64{1}, []float64{1}); math.Abs(got-1) > 1e-12 {
		t.Fatalf("k(x,x) = %v", got)
	}
	if k.Eval([]float64{0}, []float64{3}) >= k.Eval([]float64{0}, []float64{0.2}) {
		t.Fatal("Matérn must decay with distance")
	}
}

// Property: kernels are symmetric and produce PSD Gram matrices (their
// Cholesky succeeds with jitter).
func TestKernelPSDProperty(t *testing.T) {
	rng := simrand.New(5)
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(8)
		xs := make([][]float64, n)
		for i := range xs {
			xs[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		}
		for _, k := range []Kernel{
			RBF{Variance: 1, Length: []float64{0.3, 0.3, 0.3}},
			Matern52{Variance: 1, Length: []float64{0.3, 0.3, 0.3}},
		} {
			gram := linalg.NewMatrix(n, n)
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					v := k.Eval(xs[i], xs[j])
					if math.Abs(v-k.Eval(xs[j], xs[i])) > 1e-12 {
						t.Fatal("kernel asymmetric")
					}
					gram.Set(i, j, v)
				}
			}
			if _, err := linalg.CholeskyJitter(gram); err != nil {
				t.Fatalf("Gram not PSD: %v", err)
			}
		}
	}
}

func TestFitEmptyFails(t *testing.T) {
	g := New(RBF{Variance: 1}, 1e-4)
	if err := g.Fit(nil, nil); err == nil {
		t.Fatal("empty fit should fail")
	}
	if _, err := FitBestGrouped("rbf", nil, nil, 0); err == nil {
		t.Fatal("empty FitBestGrouped should fail")
	}
}

func TestInterpolatesTrainingPoints(t *testing.T) {
	xs := [][]float64{{0}, {0.25}, {0.5}, {0.75}, {1}}
	ys := []float64{1, 3, 2, 5, 4}
	g := New(RBF{Variance: 1, Length: []float64{0.2}}, 1e-6)
	if err := g.Fit(xs, ys); err != nil {
		t.Fatal(err)
	}
	for i, x := range xs {
		mean, variance := g.Predict(x)
		if math.Abs(mean-ys[i]) > 0.05 {
			t.Errorf("predict(train[%d]) = %v, want %v", i, mean, ys[i])
		}
		if variance < 0 {
			t.Error("negative variance")
		}
	}
}

func TestVarianceGrowsAwayFromData(t *testing.T) {
	xs := [][]float64{{0.4}, {0.5}, {0.6}}
	ys := []float64{1, 2, 1}
	g := New(RBF{Variance: 1, Length: []float64{0.1}}, 1e-6)
	if err := g.Fit(xs, ys); err != nil {
		t.Fatal(err)
	}
	_, nearVar := g.Predict([]float64{0.5})
	_, farVar := g.Predict([]float64{3.0})
	if farVar <= nearVar {
		t.Fatalf("variance must grow away from data: near %v, far %v", nearVar, farVar)
	}
}

func TestPredictUnfitted(t *testing.T) {
	g := New(RBF{Variance: 1}, 1e-4)
	mean, variance := g.Predict([]float64{0.5})
	if mean != 0 || variance <= 0 {
		t.Fatal("unfitted prediction should be the (zero) prior with positive variance")
	}
}

func TestFitBestLearnsSmoothFunction(t *testing.T) {
	rng := simrand.New(11)
	f := func(x []float64) float64 {
		return 3*math.Sin(3*x[0]) + x[1]*x[1]
	}
	var xs [][]float64
	var ys []float64
	for i := 0; i < 30; i++ {
		x := []float64{rng.Float64(), rng.Float64()}
		xs = append(xs, x)
		ys = append(ys, f(x))
	}
	g, err := FitBestGrouped("rbf", xs, ys, len(xs[0]))
	if err != nil {
		t.Fatal(err)
	}
	var obs, pred []float64
	for i := 0; i < 50; i++ {
		x := []float64{rng.Float64(), rng.Float64()}
		m, _ := g.Predict(x)
		obs = append(obs, f(x))
		pred = append(pred, m)
	}
	if r2 := stats.RSquared(obs, pred); r2 < 0.9 {
		t.Fatalf("FitBestGrouped R² = %v on a smooth function", r2)
	}
}

func TestFitBestGroupedHandlesExtraDims(t *testing.T) {
	rng := simrand.New(13)
	var xs [][]float64
	var ys []float64
	for i := 0; i < 20; i++ {
		base := rng.Float64()
		// 2 base dims + 1 informative extra dim.
		xs = append(xs, []float64{base, rng.Float64(), base * base})
		ys = append(ys, 5*base)
	}
	g, err := FitBestGrouped("rbf", xs, ys, 2)
	if err != nil {
		t.Fatal(err)
	}
	m, _ := g.Predict([]float64{0.5, 0.5, 0.25})
	if math.Abs(m-2.5) > 0.8 {
		t.Fatalf("grouped fit prediction = %v, want ≈2.5", m)
	}
}

func TestLogMarginalLikelihoodPrefersGoodFit(t *testing.T) {
	xs := [][]float64{{0}, {0.5}, {1}}
	ys := []float64{0, 1, 0}
	good := New(RBF{Variance: 1, Length: []float64{0.3}}, 1e-4)
	if err := good.Fit(xs, ys); err != nil {
		t.Fatal(err)
	}
	bad := New(RBF{Variance: 1, Length: []float64{100}}, 1e-4)
	if err := bad.Fit(xs, ys); err != nil {
		t.Fatal(err)
	}
	if good.LogMarginalLikelihood() <= bad.LogMarginalLikelihood() {
		t.Fatal("marginal likelihood should prefer the matching length scale")
	}
}

// Property: posterior variance is always positive.
func TestPositiveVarianceProperty(t *testing.T) {
	xs := [][]float64{{0.1}, {0.4}, {0.9}}
	ys := []float64{1, -1, 2}
	g := New(RBF{Variance: 1, Length: []float64{0.3}}, 1e-4)
	if err := g.Fit(xs, ys); err != nil {
		t.Fatal(err)
	}
	f := func(v float64) bool {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0.5
		}
		_, variance := g.Predict([]float64{math.Mod(math.Abs(v), 2)})
		return variance > 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestN(t *testing.T) {
	g := New(RBF{Variance: 1, Length: []float64{1}}, 1e-4)
	if g.N() != 0 {
		t.Fatal("unfitted N")
	}
	if err := g.Fit([][]float64{{0}, {1}}, []float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	if g.N() != 2 {
		t.Fatal("N after fit")
	}
}
