package gp

import (
	"math"
	"testing"

	"relm/internal/simrand"
)

// While the stream fits inside the budget the Sparse surrogate is the exact
// GP over every observation: fed growing prefixes in a randomized order, a
// capped model tracks an uncapped one (budget ≥ the stream) to 1e-9 at
// every step, and whenever a step lands on the re-selection schedule both
// equal batch FitBestARD on the same rows.
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

		exact := &Sparse{Kind: "rbf", BaseDims: dim, Budget: n, RefitEvery: 4}
		sparse := &Sparse{Kind: "rbf", BaseDims: dim, Budget: 64, RefitEvery: 4}

		for i := 1 + rng.Intn(n); i <= n; i++ {
			if err := exact.SetData(pxs[:i], pys[:i]); err != nil {
				t.Fatalf("trial %d: exact prefix %d: %v", trial, i, err)
			}
			fits := sparse.Stats().Fits
			if err := sparse.SetData(pxs[:i], pys[:i]); err != nil {
				t.Fatalf("trial %d: sparse prefix %d: %v", trial, i, err)
			}
			ref := exact.Model()
			if sparse.Stats().Fits > fits {
				var err error
				if ref, err = FitBestARD("rbf", pxs[:i], pys[:i], dim, 0); err != nil {
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
				sm, sv := sparse.PredictInto(x, &ss)
				if math.Abs(em-sm) > 1e-9 || math.Abs(ev-sv) > 1e-9 {
					t.Fatalf("trial %d prefix %d: sparse diverges from exact at %v: (%v, %v) vs (%v, %v)",
						trial, i, x, sm, sv, em, ev)
				}
			}
			if el, sl := ref.LogMarginalLikelihood(), sparse.LogMarginalLikelihood(); math.Abs(el-sl) > 1e-9 {
				t.Fatalf("trial %d prefix %d: LML diverges: exact %v vs sparse %v", trial, i, el, sl)
			}
		}

		if sparse.Model().N() != n {
			t.Fatalf("trial %d: under-budget active set holds %d of %d points", trial, sparse.Model().N(), n)
		}
		if st := sparse.Stats(); st.Compactions != 0 {
			t.Fatalf("trial %d: under-budget stream recorded %d compactions", trial, st.Compactions)
		}
	}
}

// Past the budget the active set stays capped while the stream keeps
// growing, every at-budget absorption is counted as a compaction, and the
// posterior stays well-formed.
func TestSparseCompressesOverBudget(t *testing.T) {
	rng := simrand.New(202)
	const n, budget = 300, 24
	xs, ys := synth(rng, n, 3)

	s := &Sparse{Kind: "rbf", BaseDims: 3, Budget: budget, RefitEvery: 16}
	if err := s.SetData(xs, ys); err != nil {
		t.Fatal(err)
	}
	if got := s.Model().N(); got > budget {
		t.Fatalf("active set %d exceeds budget %d", got, budget)
	}
	if s.N() != n {
		t.Fatalf("stream length %d, want %d", s.N(), n)
	}
	if st := s.Stats(); st.Compactions != n-budget {
		t.Fatalf("compactions = %d, want one per at-budget absorption (%d)", st.Compactions, n-budget)
	}

	// Streaming more observations keeps the cap and keeps counting.
	extra, extraYs := synth(rng, 20, 3)
	xs, ys = append(xs, extra...), append(ys, extraYs...)
	for i := n + 1; i <= len(xs); i++ {
		if err := s.SetData(xs[:i], ys[:i]); err != nil {
			t.Fatalf("prefix %d: %v", i, err)
		}
	}
	if got := s.Model().N(); got > budget {
		t.Fatalf("active set %d exceeds budget %d after appends", got, budget)
	}
	if s.N() != n+20 {
		t.Fatalf("stream length %d, want %d", s.N(), n+20)
	}

	var sc Scratch
	for probe := 0; probe < 10; probe++ {
		x := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		mean, variance := s.PredictInto(x, &sc)
		if math.IsNaN(mean) || math.IsNaN(variance) || variance <= 0 {
			t.Fatalf("degenerate posterior at %v: (%v, %v)", x, mean, variance)
		}
	}
}

// The compressed model must still explain the surface it absorbed: its
// predictions track batch FitBestARD over the whole stream within a loose
// tolerance (subset-of-data is an approximation, not a replica).
func TestSparseTracksExactPosterior(t *testing.T) {
	rng := simrand.New(303)
	const n, budget = 200, 32
	xs, ys := synth(rng, n, 2)

	exact, err := FitBestARD("rbf", xs, ys, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	sparse := &Sparse{Kind: "rbf", BaseDims: 2, Budget: budget}
	if err := sparse.SetData(xs, ys); err != nil {
		t.Fatal(err)
	}

	var se, ss Scratch
	var sumSq, sumVar float64
	for probe := 0; probe < 50; probe++ {
		x := []float64{rng.Float64(), rng.Float64()}
		em, _ := exact.PredictInto(x, &se)
		sm, _ := sparse.PredictInto(x, &ss)
		sumSq += (em - sm) * (em - sm)
		sumVar += em * em
	}
	rms := math.Sqrt(sumSq / 50)
	scale := math.Sqrt(sumVar/50) + 1e-9
	if rms > 0.5*scale {
		t.Fatalf("sparse posterior drifted: RMS gap %.4f vs signal scale %.4f", rms, scale)
	}
}

// SetData with a rewritten prefix (guide features maturing) must rebuild
// rather than silently keep the stale stream.
func TestSparseRebuildsOnPrefixChange(t *testing.T) {
	rng := simrand.New(404)
	xs, ys := synth(rng, 40, 3)
	s := &Sparse{Kind: "rbf", BaseDims: 3, Budget: 16, RefitEvery: 8, LMLDrift: -1}
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
	if s.N() != 35 {
		t.Fatalf("stream length %d after rebuild, want 35", s.N())
	}
	if got := s.Model().N(); got > 16 {
		t.Fatalf("active set %d exceeds budget 16 after rebuild", got)
	}
}

// The active point holding the incumbent-best (minimum) target is never
// evicted: stream a sharp minimum early, flood with later points, and the
// minimum target must still be in the active set.
func TestSparseProtectsIncumbent(t *testing.T) {
	rng := simrand.New(505)
	const budget = 16
	s := &Sparse{Kind: "rbf", BaseDims: 2, Budget: budget, RefitEvery: 64, LMLDrift: -1}

	xs, ys := synth(rng, budget, 2)
	// Plant an unambiguous incumbent.
	ys[3] = -50
	if err := s.SetData(xs, ys); err != nil {
		t.Fatal(err)
	}
	flood, floodYs := synth(rng, 100, 2)
	xs, ys = append(xs, flood...), append(ys, floodYs...)
	for i := budget + 1; i <= len(xs); i++ {
		if err := s.SetData(xs[:i], ys[:i]); err != nil {
			t.Fatal(err)
		}
	}
	g := s.Model()
	found := false
	for _, y := range g.ys {
		if y == -50 {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("incumbent-best observation was evicted from the active set")
	}
}
