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

// TestPredictBatchIsPredictInto holds PredictBatch to PredictInto bit for
// bit: every mean and variance of a batch must have the bits the
// one-candidate path gives, at every model size the sessions reach, at BO's
// 4 and GBO's 7 input dimensions, for pools shorter than a packed block and
// pools that end on a remainder past one, under grid- and ARD-selected
// length scales, for both kernel families, through one Scratch reused across all of them. The pool
// holds training rows (variance at the clamp) and a far point (kernel
// column underflowing to 0) besides random candidates. It runs on both exp
// paths, packed and math.Exp.
func TestPredictBatchIsPredictInto(t *testing.T) {
	forEachExpPath(t, predictBatchIsPredictInto)
}

func predictBatchIsPredictInto(t *testing.T) {
	var s Scratch
	for _, dim := range []int{4, 7} {
		pool, _ := benchData(259, dim)
		for _, n := range []int{1, 2, 3, 4, 5, 12, 25, 60, 100} {
			xs, ys := synth(simrand.New(uint64(31*n+dim)), n, dim)
			copy(pool, xs[:min(n, 8)])
			far := make([]float64, dim)
			for d := range far {
				far[d] = 40
			}
			pool[len(pool)-2] = far
			for _, kind := range []string{"rbf", "matern52"} {
				grid, err := FitBestGrouped(kind, xs, ys, 4)
				if err != nil {
					t.Fatal(err)
				}
				ard, err := FitBestARD(kind, xs, ys, 4, 0)
				if err != nil {
					t.Fatal(err)
				}
				for _, fitted := range []struct {
					fit string
					g   *GP
				}{{"grid", grid}, {"ard", ard}} {
					g := fitted.g
					for _, m := range []int{1, 3, 4, 5, 255, 256, 259} {
						means := make([]float64, m)
						vars := make([]float64, m)
						g.PredictBatch(pool[:m], means, vars, &s)
						for i, x := range pool[:m] {
							mean, variance := g.PredictInto(x, &s)
							if math.Float64bits(means[i]) != math.Float64bits(mean) ||
								math.Float64bits(vars[i]) != math.Float64bits(variance) {
								t.Fatalf("dim %d n %d %s/%s pool %d: batch[%d] = (%v, %v), PredictInto = (%v, %v)",
									dim, n, kind, fitted.fit, m, i, means[i], vars[i], mean, variance)
							}
						}
					}
				}
			}
		}
	}
}

// TestPredictBatch16IsPredictInto holds PredictBatch's sixteen-lane path to
// PredictInto bit for bit, with the packed kernel on (where the CPU has it)
// and off: at every model size from 1 to 40 rows, both batch-fitted and as
// a Scheduled model grown by appends, at BO's 4 and GBO's 7 input
// dimensions, for batches of 15, 16, 17, 255 and 256 candidates. Training rows and
// candidates include far points whose kernel values underflow, wholly or
// into math.Exp's subnormal range. Where the CPU has the kernel, it must
// also have passed its start-up check: one that fails it is broken.
func TestPredictBatch16IsPredictInto(t *testing.T) {
	if canPredict16 && !havePredict16 {
		t.Fatal("the packed predict kernel failed its start-up check")
	}
	saved := havePredict16
	defer func() { havePredict16 = saved }()
	for _, packed := range []bool{true, false} {
		if packed && !canPredict16 {
			continue
		}
		havePredict16 = packed
		var s Scratch
		for _, dim := range []int{4, 7} {
			pool, _ := benchData(256, dim)
			xs, ys := synth(simrand.New(uint64(39*dim)), 40, dim)
			for _, p := range [][]float64{pool[3], pool[200], xs[6], xs[30]} {
				for d := range p {
					p[d] += 40
				}
			}
			for _, p := range [][]float64{pool[17], xs[11]} {
				p[0] += 13.2
			}
			sp := &Scheduled{Kind: "rbf", BaseDims: 4}
			means, vars := make([]float64, len(pool)), make([]float64, len(pool))
			for n := 1; n <= len(xs); n++ {
				g := New(RBF{Variance: 1.3, Length: constLengths(dim, 0.35)}, 1e-4)
				if err := g.Fit(xs[:n], ys[:n]); err != nil {
					t.Fatal(err)
				}
				if err := sp.SetData(xs[:n], ys[:n]); err != nil {
					t.Fatal(err)
				}
				for _, model := range []interface {
					PredictBatch(xs [][]float64, means, vars []float64, s *Scratch)
					PredictInto(x []float64, s *Scratch) (mean, variance float64)
				}{g, sp} {
					for _, m := range []int{15, 16, 17, 255, 256} {
						model.PredictBatch(pool[:m], means, vars, &s)
						for i, x := range pool[:m] {
							mean, variance := model.PredictInto(x, &s)
							if math.Float64bits(means[i]) != math.Float64bits(mean) ||
								math.Float64bits(vars[i]) != math.Float64bits(variance) {
								t.Fatalf("packed %v dim %d n %d %T batch %d: [%d] = (%v, %v), PredictInto = (%v, %v)",
									packed, dim, n, model, m, i, means[i], vars[i], mean, variance)
							}
						}
					}
				}
			}
			if sp.Stats().Appends == 0 {
				t.Fatal("the Scheduled model never appended")
			}
		}
	}
}

// The scheduler must append between selections, re-select on the RefitEvery
// schedule, and fall back to a full selection when the data prefix changes
// retroactively (e.g. a guide model maturing rewrites every feature row).
func TestIncrementalSchedule(t *testing.T) {
	rng := simrand.New(23)
	xs, ys := synth(rng, 30, 3)
	inc := &Scheduled{Kind: "rbf", BaseDims: 3, RefitEvery: 4, LMLDrift: -1}

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
	if got := inc.gp.N(); got != 10 {
		t.Fatalf("model holds %d points, want 10", got)
	}
}

// The scheduled model must stay close to what per-observation re-selection
// would produce: the refit fallback (here forced by drift or schedule)
// equals batch FitBestARD on the same data.
func TestIncrementalRefitMatchesBatchSelection(t *testing.T) {
	rng := simrand.New(31)
	xs, ys := synth(rng, 24, 3)
	inc := &Scheduled{Kind: "rbf", BaseDims: 3, RefitEvery: 4, LMLDrift: -1}
	for i := 4; i <= len(xs); i++ {
		if err := inc.SetData(xs[:i], ys[:i]); err != nil {
			t.Fatal(err)
		}
	}
	got := inc.gp
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
