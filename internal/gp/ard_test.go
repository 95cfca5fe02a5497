package gp

import (
	"math"
	"testing"

	"relm/internal/simrand"
)

// Satellite acceptance: ARD refinement accepts a step only when the log
// marginal likelihood improves, so FitBestARD never returns a model below
// the grid starting point.
func TestARDNeverBelowGrid(t *testing.T) {
	rng := simrand.New(77)
	for trial := 0; trial < 6; trial++ {
		dim := 2 + rng.Intn(3)
		n := 12 + rng.Intn(28)
		xs, ys := synth(rng, n, dim)
		grid, err := FitBestGrouped(xs, ys, dim)
		if err != nil {
			t.Fatalf("trial %d: grid: %v", trial, err)
		}
		ard, err := FitBestARD(xs, ys, dim)
		if err != nil {
			t.Fatalf("trial %d: ard: %v", trial, err)
		}
		gl, al := grid.LogMarginalLikelihood(), ard.LogMarginalLikelihood()
		if al < gl-1e-9 {
			t.Fatalf("trial %d: ARD returned LML %v below grid %v", trial, al, gl)
		}
	}
}

// On a strongly anisotropic surface — one active dimension, one pure noise
// dimension — the per-dimension ascent should strictly beat the grouped
// grid, which is forced to share one length across both.
func TestARDImprovesAnisotropicFit(t *testing.T) {
	rng := simrand.New(99)
	var xs [][]float64
	var ys []float64
	for i := 0; i < 30; i++ {
		x := []float64{rng.Float64(), rng.Float64()}
		xs = append(xs, x)
		ys = append(ys, math.Sin(9*x[0])+rng.Norm(0, 0.01))
	}
	grid, err := FitBestGrouped(xs, ys, 2)
	if err != nil {
		t.Fatal(err)
	}
	ard := ardRefine(grid, 12)
	if ard.LogMarginalLikelihood() <= grid.LogMarginalLikelihood() {
		t.Fatalf("ARD did not improve an anisotropic fit: %v vs grid %v",
			ard.LogMarginalLikelihood(), grid.LogMarginalLikelihood())
	}
}
