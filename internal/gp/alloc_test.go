package gp

import "testing"

// TestPredictAllocations holds the surrogate's zero-allocation contract: an
// acquisition step scores hundreds of candidates per suggestion, so a
// posterior evaluation through a warmed Scratch must not touch the heap —
// not on the exact model, not over a 256-row pool (BO-shaped, and GBO's
// 7-dimensional rows at a session's 12 points), and not on a budgeted
// model whose stream has outgrown its active set.
func TestPredictAllocations(t *testing.T) {
	const dim, n, budget = 6, 100, 256
	xs, ys := benchData(budget+64, dim)

	g := New(RBF{Variance: 1, Length: constLengths(dim, 0.35)}, 1e-4)
	if err := g.Fit(xs[:n], ys[:n]); err != nil {
		t.Fatal(err)
	}
	var s Scratch
	g.PredictInto(xs[n], &s) // warm the scratch
	if got := testing.AllocsPerRun(100, func() { g.PredictInto(xs[n], &s) }); got != 0 {
		t.Errorf("GP.PredictInto: %v allocs/op, want 0", got)
	}

	pool := xs[:256]
	means := make([]float64, len(pool))
	vars := make([]float64, len(pool))
	if got := testing.AllocsPerRun(10, func() { g.PredictBatch(pool, means, vars, &s) }); got != 0 {
		t.Errorf("GP.PredictBatch over %d rows: %v allocs/op, want 0", len(pool), got)
	}

	gx, gy := benchData(12+256, 7)
	gg := New(RBF{Variance: 1, Length: constLengths(7, 0.35)}, 1e-4)
	if err := gg.Fit(gx[:12], gy[:12]); err != nil {
		t.Fatal(err)
	}
	gpool := gx[12:]
	if got := testing.AllocsPerRun(10, func() { gg.PredictBatch(gpool, means, vars, &s) }); got != 0 {
		t.Errorf("GP.PredictBatch over %d GBO rows: %v allocs/op, want 0", len(gpool), got)
	}

	sp := &Sparse{Kind: "rbf", BaseDims: dim, Budget: budget,
		RefitEvery: 1 << 30, LMLDrift: -1, ARDIters: -1}
	if err := sp.SetData(xs, ys); err != nil {
		t.Fatal(err)
	}
	if sp.N() <= budget || sp.Model().N() != budget {
		t.Fatalf("sparse model not at budget: stream %d, active set %d, budget %d", sp.N(), sp.Model().N(), budget)
	}
	var sc Scratch
	sp.PredictInto(xs[0], &sc) // warm the scratch
	if got := testing.AllocsPerRun(100, func() { sp.PredictInto(xs[0], &sc) }); got != 0 {
		t.Errorf("Sparse.PredictInto at budget: %v allocs/op, want 0", got)
	}
}
