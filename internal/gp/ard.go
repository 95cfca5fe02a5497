package gp

import (
	"math"
	"slices"

	"relm/internal/linalg"
)

// ardIters is the gradient-ascent budget of FitBestARD: how many
// accepted-or-backtracked steps the per-dimension length-scale refinement
// may take per re-selection.
const ardIters = 6

// FitBestARD selects hyperparameters in two stages: the coarse two-group
// grid of FitBestGrouped locates the right order of magnitude, then ARD
// gradient ascent refines every dimension's length scale independently by
// maximizing the log marginal likelihood (ardIters steps). Steps are only
// ever accepted when they improve the likelihood, so the result is never
// worse than the grid starting point.
func FitBestARD(xs [][]float64, ys []float64, baseDims int) (*GP, error) {
	g, err := FitBestGrouped(xs, ys, baseDims)
	if err != nil {
		return g, err
	}
	return ardRefine(g, ardIters), nil
}

// ARD length scales are clamped to this range (in length space) so a noisy
// gradient cannot drive a dimension to a degenerate kernel.
const (
	ardMinLength = 1e-2
	ardMaxLength = 1e2
)

// ardRefine runs bounded gradient ascent on the per-dimension log length
// scales, starting from the grid-selected model. The gradient is analytic —
// ∂L/∂θ = ½ tr((ααᵀ − K⁻¹) ∂K/∂θ) through the cached Cholesky factor — and
// a backtracking line search accepts a step only when the refitted marginal
// likelihood improves, so the returned model's LML is monotonically ≥ the
// starting point's. The candidates are fitted to g's training rows.
func ardRefine(g *GP, iters int) *GP {
	if len(g.xs) == 0 {
		return g
	}
	dim := len(g.xs[0])
	lengths := kernelLengths(g.Kernel.(RBF), dim)
	theta := make([]float64, dim)
	for d := range theta {
		theta[d] = math.Log(lengths[d])
	}
	trial := make([]float64, dim)
	trialLen := make([]float64, dim)
	grad := make([]float64, dim)

	// The candidates share g's rows, which are xs and ys as g's fit copied
	// them; g itself stays as it is, its caller's to keep.
	gr := newGrid(slices.Clip(g.xs), slices.Clip(g.ys))
	cur, curLML := g, g.LogMarginalLikelihood()
	step := 0.25
	logMin, logMax := math.Log(ardMinLength), math.Log(ardMaxLength)
	for it := 0; it < iters; it++ {
		ardGradient(cur, grad)
		gmax := 0.0
		for _, v := range grad {
			if a := math.Abs(v); a > gmax {
				gmax = a
			}
		}
		if gmax < 1e-10 {
			break
		}
		for d := range trial {
			t := theta[d] + step*grad[d]/gmax
			if t < logMin {
				t = logMin
			} else if t > logMax {
				t = logMax
			}
			trial[d] = t
			trialLen[d] = math.Exp(t)
		}
		cand, ok := gr.fit(RBF{Variance: 1, Length: append([]float64(nil), trialLen...)}, cur.Noise)
		if !ok {
			step /= 2
			continue
		}
		if ml := cand.LogMarginalLikelihood(); ml > curLML {
			copy(theta, trial)
			if cur != g {
				gr.lose(cur)
			}
			cur, curLML = cand, ml
			if step *= 1.3; step > 1 {
				step = 1
			}
		} else {
			gr.lose(cand)
			if step /= 2; step < 1e-3 {
				break
			}
		}
	}
	return cur
}

// kernelLengths expands the fitted kernel's length scales to dense
// per-dimension values (the "missing or non-positive means 1" convention).
func kernelLengths(k RBF, dim int) []float64 {
	ls := make([]float64, dim)
	for d := range ls {
		if d < len(k.Length) && k.Length[d] > 0 {
			ls[d] = k.Length[d]
		} else {
			ls[d] = 1
		}
	}
	return ls
}

// ardGradient computes ∂LML/∂θ_d for θ_d = log l_d into grad, reading the
// fitted model's cached Cholesky factor and dual weights. Cost: O(n³) for
// K⁻¹ (the same order as the fit that produced the factor) plus O(n²·d)
// for the pairwise accumulation.
func ardGradient(g *GP, grad []float64) {
	n := len(g.xs)
	dim := len(grad)
	for d := range grad {
		grad[d] = 0
	}
	if n == 0 {
		return
	}
	k := g.Kernel.(RBF)
	inv, variance := invLengths(k.Length, dim), k.Variance

	// K⁻¹ column by column through the cached factor.
	kinv := linalg.NewMatrix(n, n)
	col := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := range col {
			col[j] = 0
		}
		col[i] = 1
		linalg.CholSolveInto(g.chol, col, col)
		for j := range col {
			kinv.Set(j, i, col[j])
		}
	}

	// Pairwise accumulation. The diagonal contributes nothing: Δ = 0 makes
	// every ∂K_ii/∂θ_d zero.
	u := make([]float64, dim)
	for i := 0; i < n; i++ {
		xi := g.xs[i]
		ai := g.alpha[i]
		for j := i + 1; j < n; j++ {
			xj := g.xs[j]
			var s float64
			for d := 0; d < dim; d++ {
				diff := (xi[d] - xj[d]) * inv[d]
				ud := diff * diff
				u[d] = ud
				s += ud
			}
			// dk/ds of the kernel value at squared scaled distance s.
			base := -0.5 * variance * math.Exp(-0.5*s)
			// ∂s/∂θ_d = −2·u_d; symmetry doubles the pair, the ½ in the
			// trace halves it back.
			coef := (ai*g.alpha[j] - kinv.At(i, j)) * base * -2
			for d := 0; d < dim; d++ {
				grad[d] += coef * u[d]
			}
		}
	}
}
