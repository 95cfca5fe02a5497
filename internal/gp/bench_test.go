package gp

import (
	"fmt"
	"math"
	"testing"

	"relm/internal/simrand"
)

// BenchmarkGPFitPredict measures the surrogate hot path at session length n:
//
//   - observe=refit: what absorbing one observation cost before the
//     incremental path — the full hyperparameter grid search
//     (FitBestGrouped), each cell rebuilding the Gram matrix and running an
//     O(n³) Cholesky.
//   - observe=append: the incremental path — one O(n²) GP.Append.
//   - predict: one allocation-free posterior evaluation (PredictInto).
//   - predict=batch256: scoring a 256-candidate acquisition pool
//     (PredictBatch) through one reused scratch.
//
// Nothing gates these timings: TestPredictAllocations holds the predict
// paths at 0 allocs/op, and the append-vs-refit cost on real sessions is the
// benchmark's gp.append_us_per_call beside gp.refit_us_per_call.
func BenchmarkGPFitPredict(b *testing.B) {
	const dim = 6
	for _, n := range []int{25, 100} {
		xs, ys := benchData(n+64, dim)

		b.Run(fmt.Sprintf("observe=refit/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := FitBestGrouped("rbf", xs[:n], ys[:n], 4); err != nil {
					b.Fatal(err)
				}
			}
		})

		b.Run(fmt.Sprintf("observe=append/n=%d", n), func(b *testing.B) {
			kern := RBF{Variance: 1, Length: constLengths(dim, 0.35)}
			var g *GP
			rebase := func() {
				g = New(kern, 1e-4)
				if err := g.Fit(xs[:n], ys[:n]); err != nil {
					b.Fatal(err)
				}
			}
			rebase()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if g.N() >= n+32 {
					b.StopTimer()
					rebase()
					b.StartTimer()
				}
				if err := g.Append(xs[g.N()], ys[g.N()]); err != nil {
					b.Fatal(err)
				}
			}
		})

		b.Run(fmt.Sprintf("predict/n=%d", n), func(b *testing.B) {
			g := New(RBF{Variance: 1, Length: constLengths(dim, 0.35)}, 1e-4)
			if err := g.Fit(xs[:n], ys[:n]); err != nil {
				b.Fatal(err)
			}
			x := xs[n]
			var s Scratch
			g.PredictInto(x, &s) // warm the scratch
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, v := g.PredictInto(x, &s); v <= 0 {
					b.Fatal("bad variance")
				}
			}
		})

		b.Run(fmt.Sprintf("predict=batch256/n=%d", n), func(b *testing.B) {
			g := New(RBF{Variance: 1, Length: constLengths(dim, 0.35)}, 1e-4)
			if err := g.Fit(xs[:n], ys[:n]); err != nil {
				b.Fatal(err)
			}
			cands, _ := benchData(256, dim)
			means := make([]float64, 256)
			vars := make([]float64, 256)
			var s Scratch
			g.PredictBatch(cands, means, vars, &s) // warm the scratch
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.PredictBatch(cands, means, vars, &s)
			}
		})
	}
}

// BenchmarkGPSparse measures the budgeted surrogate at stream lengths far
// past its active-set cap — the regime the budget exists for:
//
//   - append: absorbing one observation into an at-budget active set
//     through SetData — the prefix check against the stream copy (O(n)),
//     then a conditional-variance score, an eviction (or rejection), and a
//     bordered re-append, all O(m²) in the budget m.
//   - predict: one allocation-free posterior evaluation through the capped
//     active set (TestPredictAllocations holds it at 0 allocs/op).
//
// Re-selection is suppressed (huge RefitEvery, drift and ARD disabled) so
// the timings isolate the steady-state paths from the scheduled O(m³)
// hyperparameter searches.
func BenchmarkGPSparse(b *testing.B) {
	const dim, budget = 6, 256

	build := func(b *testing.B, n int) (*Sparse, [][]float64, []float64) {
		xs, ys := benchData(n+512, dim)
		s := &Sparse{Kind: "rbf", BaseDims: dim, Budget: budget,
			RefitEvery: 1 << 30, LMLDrift: -1, ARDIters: -1}
		if err := s.SetData(xs[:n], ys[:n]); err != nil {
			b.Fatal(err)
		}
		return s, xs, ys
	}

	for _, n := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("append/n=%d", n), func(b *testing.B) {
			s, xs, ys := build(b, n)
			sxs, sys := xs[:n:n], ys[:n:n]
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				j := n + i%512
				sxs, sys = append(sxs, xs[j]), append(sys, ys[j])
				if err := s.SetData(sxs, sys); err != nil {
					b.Fatal(err)
				}
			}
		})

		b.Run(fmt.Sprintf("predict/n=%d", n), func(b *testing.B) {
			s, xs, _ := build(b, n)
			x := xs[n]
			var sc Scratch
			s.PredictInto(x, &sc) // warm the scratch
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, v := s.PredictInto(x, &sc); v <= 0 {
					b.Fatal("bad variance")
				}
			}
		})
	}
}

func benchData(n, dim int) ([][]float64, []float64) {
	rng := simrand.New(1234)
	xs := make([][]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		x := make([]float64, dim)
		for d := range x {
			x[d] = rng.Float64()
		}
		xs[i] = x
		ys[i] = 100 + 30*math.Sin(4*x[0]) + 10*x[1]*x[2] + rng.Norm(0, 1)
	}
	return xs, ys
}

func constLengths(dim int, v float64) []float64 {
	ls := make([]float64, dim)
	for d := range ls {
		ls[d] = v
	}
	return ls
}
