package gp

import "testing"

// TestPredictAllocations holds the surrogate's zero-allocation contract: an
// acquisition step scores hundreds of candidates per suggestion, so a
// posterior evaluation through a warmed Scratch must not touch the heap —
// not on the exact model, not over a 256-row pool (BO-shaped, and GBO's
// 7-dimensional rows at a session's 12 points), and not through the
// Scheduled surrogate at 256 points.
func TestPredictAllocations(t *testing.T) {
	const dim, n, big = 6, 100, 256
	xs, ys := benchData(big+64, dim)

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

	sp := &Scheduled{BaseDims: dim, refitEvery: 1 << 30, lmlDrift: -1}
	if err := sp.SetData(xs[:big], ys[:big]); err != nil {
		t.Fatal(err)
	}
	if got := sp.gp.N(); got != big {
		t.Fatalf("the scheduled model holds %d points, want %d", got, big)
	}
	var sc Scratch
	sp.PredictInto(xs[big], &sc) // warm the scratch
	if got := testing.AllocsPerRun(100, func() { sp.PredictInto(xs[big], &sc) }); got != 0 {
		t.Errorf("Scheduled.PredictInto at %d points: %v allocs/op, want 0", big, got)
	}
}
