package gp

import (
	"math"
	"sync"
	"testing"

	"relm/internal/simrand"
)

// synth builds a mildly noisy response surface over [0,1]^dim.
func synth(rng *simrand.Rand, n, dim int) (xs [][]float64, ys []float64) {
	for i := 0; i < n; i++ {
		x := make([]float64, dim)
		for d := range x {
			x[d] = rng.Float64()
		}
		y := 3*math.Sin(3*x[0]) + x[1%dim]*x[1%dim] + rng.Norm(0, 0.05)
		xs = append(xs, x)
		ys = append(ys, y)
	}
	return xs, ys
}

// Property (tentpole acceptance): incrementally appending observations in a
// randomized order produces the same posterior as one batch Fit of the same
// (reordered) data — means, variances and marginal likelihood within 1e-9.
func TestAppendMatchesBatchFit(t *testing.T) {
	rng := simrand.New(42)
	for trial := 0; trial < 12; trial++ {
		dim := 2 + rng.Intn(4)
		n := 5 + rng.Intn(36)
		xs, ys := synth(rng, n, dim)

		// Randomize the append order.
		perm := rng.Perm(n)
		pxs := make([][]float64, n)
		pys := make([]float64, n)
		for i, j := range perm {
			pxs[i], pys[i] = xs[j], ys[j]
		}

		kern := RBF{Variance: 1, Length: []float64{0.3, 0.5}}
		batch := New(kern, 1e-4)
		if err := batch.Fit(pxs, pys); err != nil {
			t.Fatalf("trial %d: batch fit: %v", trial, err)
		}

		inc := New(kern, 1e-4)
		seed := 1 + rng.Intn(n)
		if err := inc.Fit(pxs[:seed], pys[:seed]); err != nil {
			t.Fatalf("trial %d: seed fit: %v", trial, err)
		}
		for i := seed; i < n; i++ {
			if err := inc.Append(pxs[i], pys[i]); err != nil {
				t.Fatalf("trial %d: append %d: %v", trial, i, err)
			}
		}

		var s Scratch
		for probe := 0; probe < 20; probe++ {
			x := make([]float64, dim)
			for d := range x {
				x[d] = rng.Float64() * 1.2
			}
			bm, bv := batch.Predict(x)
			im, iv := inc.PredictInto(x, &s)
			if math.Abs(bm-im) > 1e-9 || math.Abs(bv-iv) > 1e-9 {
				t.Fatalf("trial %d: posterior diverges at %v: batch (%v, %v) vs incremental (%v, %v)",
					trial, x, bm, bv, im, iv)
			}
		}
		if bl, il := batch.LogMarginalLikelihood(), inc.LogMarginalLikelihood(); math.Abs(bl-il) > 1e-9 {
			t.Fatalf("trial %d: LML diverges: batch %v vs incremental %v", trial, bl, il)
		}
	}
}

// Appending near-duplicate points must survive via the jittered batch-refit
// fallback rather than corrupting the factor.
func TestAppendDuplicateFallsBackToRefit(t *testing.T) {
	kern := RBF{Variance: 1, Length: []float64{0.3}}
	g := New(kern, 1e-12) // tiny noise so the duplicate actually breaks the pivot
	if err := g.Fit([][]float64{{0.2}, {0.8}}, []float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := g.Append([]float64{0.2}, 1); err != nil {
			t.Fatalf("append duplicate %d: %v", i, err)
		}
	}
	if g.N() != 6 {
		t.Fatalf("N = %d, want 6", g.N())
	}
	mean, variance := g.Predict([]float64{0.2})
	if math.IsNaN(mean) || math.IsNaN(variance) || variance <= 0 {
		t.Fatalf("degenerate posterior after duplicates: (%v, %v)", mean, variance)
	}
}

// PredictInto with distinct scratches must be safe from concurrent
// goroutines (run under -race in CI).
func TestPredictIntoConcurrent(t *testing.T) {
	rng := simrand.New(9)
	xs, ys := synth(rng, 40, 3)
	g := New(RBF{Variance: 1, Length: []float64{0.3, 0.3, 0.3}}, 1e-4)
	if err := g.Fit(xs, ys); err != nil {
		t.Fatal(err)
	}
	want, _ := g.Predict([]float64{0.5, 0.5, 0.5})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var s Scratch
			for i := 0; i < 500; i++ {
				m, v := g.PredictInto([]float64{0.5, 0.5, 0.5}, &s)
				if m != want || v <= 0 {
					t.Errorf("concurrent predict = (%v, %v), want mean %v", m, v, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestPredictBatchMatchesPredict(t *testing.T) {
	rng := simrand.New(17)
	xs, ys := synth(rng, 25, 2)
	g := New(Matern52{Variance: 1, Length: []float64{0.4, 0.4}}, 1e-4)
	if err := g.Fit(xs, ys); err != nil {
		t.Fatal(err)
	}
	cands, _ := synth(rng, 30, 2)
	means := make([]float64, len(cands))
	vars := make([]float64, len(cands))
	var s Scratch
	g.PredictBatch(cands, means, vars, &s)
	for i, x := range cands {
		m, v := g.Predict(x)
		if means[i] != m || vars[i] != v {
			t.Fatalf("batch[%d] = (%v, %v), Predict = (%v, %v)", i, means[i], vars[i], m, v)
		}
	}
}

// The scheduler must append between selections, re-select on the RefitEvery
// schedule, and fall back to a full selection when the data prefix changes
// retroactively (e.g. a guide model maturing rewrites every feature row).
func TestIncrementalSchedule(t *testing.T) {
	rng := simrand.New(23)
	xs, ys := synth(rng, 30, 3)
	inc := &Sparse{Kind: "rbf", BaseDims: 3, RefitEvery: 4, LMLDrift: -1}

	if err := inc.SetData(xs[:5], ys[:5]); err != nil {
		t.Fatal(err)
	}
	if st := inc.Stats(); st.Fits != 1 {
		t.Fatalf("first SetData: fits = %d, want 1", st.Fits)
	}
	for i := 6; i <= 8; i++ {
		if err := inc.SetData(xs[:i], ys[:i]); err != nil {
			t.Fatal(err)
		}
	}
	if st := inc.Stats(); st.Fits != 1 || st.Appends != 3 {
		t.Fatalf("after 3 streamed points: fits = %d appends = %d, want 1 and 3", st.Fits, st.Appends)
	}
	// The 4th point lands on the schedule: it is re-selected on directly,
	// not appended first.
	if err := inc.SetData(xs[:9], ys[:9]); err != nil {
		t.Fatal(err)
	}
	if st := inc.Stats(); st.Fits != 2 || st.Appends != 3 {
		t.Fatalf("schedule: fits = %d appends = %d, want 2 and 3", st.Fits, st.Appends)
	}

	// Retroactive feature change: every row gains a dimension.
	wide := make([][]float64, 10)
	for i := range wide {
		wide[i] = append(append([]float64(nil), xs[i]...), 0.5)
	}
	if err := inc.SetData(wide, ys[:10]); err != nil {
		t.Fatal(err)
	}
	if st := inc.Stats(); st.Fits != 3 {
		t.Fatalf("prefix change did not force a re-selection: fits = %d, want 3", st.Fits)
	}
	if got := inc.Model().N(); got != 10 {
		t.Fatalf("model holds %d points, want 10", got)
	}
}

// The scheduled model must stay close to what per-observation re-selection
// would produce: the refit fallback (here forced by drift or schedule)
// equals batch FitBestARD on the same data.
func TestIncrementalRefitMatchesBatchSelection(t *testing.T) {
	rng := simrand.New(31)
	xs, ys := synth(rng, 24, 3)
	inc := &Sparse{Kind: "rbf", BaseDims: 3, RefitEvery: 4, LMLDrift: -1}
	for i := 4; i <= len(xs); i++ {
		if err := inc.SetData(xs[:i], ys[:i]); err != nil {
			t.Fatal(err)
		}
	}
	got := inc.Model()
	// 24 points with RefitEvery=4: the final SetData lands exactly on a
	// scheduled re-selection, so the model must match batch selection.
	want, err := FitBestARD("rbf", xs, ys, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	for probe := 0; probe < 10; probe++ {
		x := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		gm, gv := got.Predict(x)
		wm, wv := want.Predict(x)
		if math.Abs(gm-wm) > 1e-9 || math.Abs(gv-wv) > 1e-9 {
			t.Fatalf("scheduled refit diverges from batch selection at %v: (%v,%v) vs (%v,%v)",
				x, gm, gv, wm, wv)
		}
	}
}
