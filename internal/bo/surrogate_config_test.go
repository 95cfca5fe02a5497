package bo

import (
	"testing"

	"relm/internal/sim/cluster"
	"relm/internal/sim/workload"
	"relm/internal/tune"
)

// Tentpole acceptance (bounded degradation): a session whose surrogate is
// compressed far below its observation count must still land an incumbent
// in the same league as the exact model — the budget trades a little
// incumbent quality for O(m²) cost, not convergence.
func TestBudgetedSurrogateBoundedDegradation(t *testing.T) {
	cl := cluster.A()
	wl, _ := workload.ByName("K-means")

	run := func(budget int) (best float64, compactions int) {
		ev := tune.NewEvaluator(cl, wl, 11)
		opts := Options{Seed: 11, MaxIterations: 40, MinNewSamples: 40, EIFraction: -1}
		opts.Surrogate.Budget = budget
		tn := NewTuner(ev.Space, opts, nil, nil)
		for i := 0; !tn.Done() && i < 60; i++ {
			tn.Observe(ev.Eval(tn.Suggest()))
		}
		b, ok := tn.Best()
		if !ok {
			t.Fatal("session found no incumbent")
		}
		return b.Objective, tn.SurrogateInfo().Compactions
	}

	exact, exactComp := run(0)
	sparse, sparseComp := run(12)
	if exactComp != 0 {
		t.Fatalf("exact surrogate recorded %d compactions", exactComp)
	}
	if sparseComp == 0 {
		t.Fatal("budgeted surrogate recorded no compactions despite n >> budget")
	}
	// Fixed seeds make both runs deterministic; the bound is the acceptance
	// criterion, not a statistical guess.
	if sparse > exact*1.5 {
		t.Fatalf("budgeted incumbent %.1f degraded past 1.5x the exact incumbent %.1f", sparse, exact)
	}
}
