package gp

import (
	"math"
	"slices"
	"testing"

	"relm/internal/simrand"
)

// The Scheduled surrogate is the exact GP over every observation: fed
// growing prefixes in a randomized order, it equals batch FitBestARD on the
// same rows whenever a step lands on the re-selection schedule, and between
// selections a batch Fit of the prefix under the last selected
// hyperparameters, to 1e-9 at every step.
func TestSparseMatchesExactUnderBudget(t *testing.T) {
	rng := simrand.New(101)
	for trial := 0; trial < 8; trial++ {
		dim := 2 + rng.Intn(3)
		n := 6 + rng.Intn(30)
		xs, ys := synth(rng, n, dim)

		perm := rng.Perm(n)
		pxs := make([][]float64, n)
		pys := make([]float64, n)
		for i, j := range perm {
			pxs[i], pys[i] = xs[j], ys[j]
		}

		s := &Scheduled{Kind: "rbf", BaseDims: dim, RefitEvery: 4}
		var selected *GP
		for i := 1 + rng.Intn(n); i <= n; i++ {
			fits := s.Stats().Fits
			if err := s.SetData(pxs[:i], pys[:i]); err != nil {
				t.Fatalf("trial %d: prefix %d: %v", trial, i, err)
			}
			var ref *GP
			if s.Stats().Fits > fits {
				var err error
				if selected, err = FitBestARD("rbf", pxs[:i], pys[:i], dim, 0); err != nil {
					t.Fatalf("trial %d: batch selection on prefix %d: %v", trial, i, err)
				}
				ref = selected
			} else {
				ref = New(selected.Kernel, selected.Noise)
				if err := ref.Fit(pxs[:i], pys[:i]); err != nil {
					t.Fatalf("trial %d: batch fit of prefix %d: %v", trial, i, err)
				}
			}
			var se, ss Scratch
			for probe := 0; probe < 5; probe++ {
				x := make([]float64, dim)
				for d := range x {
					x[d] = rng.Float64() * 1.2
				}
				em, ev := ref.PredictInto(x, &se)
				sm, sv := s.PredictInto(x, &ss)
				if math.Abs(em-sm) > 1e-9 || math.Abs(ev-sv) > 1e-9 {
					t.Fatalf("trial %d prefix %d: scheduled diverges from exact at %v: (%v, %v) vs (%v, %v)",
						trial, i, x, sm, sv, em, ev)
				}
			}
			if el, sl := ref.LogMarginalLikelihood(), s.gp.LogMarginalLikelihood(); math.Abs(el-sl) > 1e-9 {
				t.Fatalf("trial %d prefix %d: LML diverges: exact %v vs scheduled %v", trial, i, el, sl)
			}
		}
		if s.gp.N() != n {
			t.Fatalf("trial %d: the model holds %d of %d points", trial, s.gp.N(), n)
		}
	}
}

// A stream longer than any cap the surrogate once had (256 points) is
// still the exact GP: given at once, it is batch FitBestARD on the same
// rows, bit for bit.
func TestSparseTracksExactPosterior(t *testing.T) {
	rng := simrand.New(303)
	const n = 300
	xs, ys := synth(rng, n, 2)

	exact, err := FitBestARD("rbf", xs, ys, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	s := &Scheduled{Kind: "rbf", BaseDims: 2}
	if err := s.SetData(xs, ys); err != nil {
		t.Fatal(err)
	}
	if got := s.gp.N(); got != n {
		t.Fatalf("the model holds %d of %d points", got, n)
	}
	var se, ss Scratch
	for probe := 0; probe < 50; probe++ {
		x := []float64{rng.Float64(), rng.Float64()}
		em, ev := exact.PredictInto(x, &se)
		sm, sv := s.PredictInto(x, &ss)
		if math.Float64bits(em) != math.Float64bits(sm) || math.Float64bits(ev) != math.Float64bits(sv) {
			t.Fatalf("at %v: (%v, %v), FitBestARD (%v, %v)", x, sm, sv, em, ev)
		}
	}
}

// SetData with a rewritten prefix (guide features maturing) must rebuild
// rather than silently keep the stale rows.
func TestSparseRebuildsOnPrefixChange(t *testing.T) {
	rng := simrand.New(404)
	xs, ys := synth(rng, 40, 3)
	s := &Scheduled{Kind: "rbf", BaseDims: 3, RefitEvery: 8, LMLDrift: -1}
	if err := s.SetData(xs[:30], ys[:30]); err != nil {
		t.Fatal(err)
	}
	fitsBefore := s.Stats().Fits

	wide := make([][]float64, 35)
	for i := range wide {
		wide[i] = append(append([]float64(nil), xs[i]...), 0.5)
	}
	if err := s.SetData(wide, ys[:35]); err != nil {
		t.Fatal(err)
	}
	if s.Stats().Fits <= fitsBefore {
		t.Fatalf("prefix change did not force a re-selection: fits %d -> %d", fitsBefore, s.Stats().Fits)
	}
	if got := s.gp.N(); got != 35 {
		t.Fatalf("the model holds %d points after the rebuild, want 35", got)
	}
}

// Nothing streamed in is ever dropped: plant a sharp minimum early, stream
// 100 more points one at a time, and the model's rows are the stream's,
// the incumbent among them — copies, so the caller may reuse its buffers.
func TestSparseProtectsIncumbent(t *testing.T) {
	rng := simrand.New(505)
	s := &Scheduled{Kind: "rbf", BaseDims: 2, RefitEvery: 64, LMLDrift: -1}

	xs, ys := synth(rng, 16, 2)
	ys[3] = -50
	if err := s.SetData(xs, ys); err != nil {
		t.Fatal(err)
	}
	flood, floodYs := synth(rng, 100, 2)
	xs, ys = append(xs, flood...), append(ys, floodYs...)
	for i := 17; i <= len(xs); i++ {
		if err := s.SetData(xs[:i], ys[:i]); err != nil {
			t.Fatal(err)
		}
	}
	g := s.gp
	if !slices.Equal(g.ys, ys) || !slices.EqualFunc(g.xs, xs, slices.Equal[[]float64]) {
		t.Fatalf("the model's %d rows are not the %d streamed", g.N(), len(xs))
	}
	if &g.xs[3][0] == &xs[3][0] {
		t.Fatal("the model keeps the caller's row instead of a copy")
	}
}
