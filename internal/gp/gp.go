// Package gp implements Gaussian Process regression — the surrogate model of
// the paper's Bayesian Optimization (§5.1, Equation 6): kernels (ARD RBF and
// Matérn-5/2), exact inference via Cholesky factorization, posterior mean and
// variance, and a small marginal-likelihood grid search for the kernel
// hyperparameters.
//
// The regressor supports two training paths. Fit is the batch path: it
// rebuilds the Gram matrix and runs a fresh O(n³) factorization. Append is
// the incremental path: conditioning on one new observation extends the
// cached Cholesky factor by a bordered row in O(n²), producing bit-for-bit
// the factor a batch refit would (falling back to a jittered batch refit
// when the bordered pivot is not numerically positive). Prediction has
// allocation-free variants (PredictInto, PredictBatch) that write into a
// caller-owned Scratch; PredictBatch scores four RBF candidates per pass and
// returns, bit for bit, what PredictInto returns for each. An RBF kernel
// row takes its exps in one call: on amd64 with AVX2 and FMA four lanes per
// instruction, with math.Exp's bits (checked against it at start-up; on a
// mismatch every row stays on math.Exp). Sparse schedules
// hyperparameter re-selection so streaming observations pay the grid search
// only every few appends instead of on every one.
package gp

import (
	"errors"
	"math"

	"relm/internal/linalg"
)

// Kernel is a positive-semidefinite covariance function.
type Kernel interface {
	// Eval returns k(a, b).
	Eval(a, b []float64) float64
}

// RBF is the squared-exponential kernel with automatic relevance
// determination: k(a,b) = σ²·exp(-½ Σ ((a_d-b_d)/l_d)²).
type RBF struct {
	Variance float64
	Length   []float64
}

// Eval implements Kernel.
func (k RBF) Eval(a, b []float64) float64 {
	var s float64
	for d := range a {
		l := 1.0
		if d < len(k.Length) && k.Length[d] > 0 {
			l = k.Length[d]
		}
		diff := (a[d] - b[d]) / l
		s += diff * diff
	}
	return k.Variance * math.Exp(-0.5*s)
}

// Matern52 is the Matérn kernel with ν = 5/2, a standard choice for
// response surfaces that are less smooth than the RBF assumes.
type Matern52 struct {
	Variance float64
	Length   []float64
}

// Eval implements Kernel.
func (k Matern52) Eval(a, b []float64) float64 {
	var s float64
	for d := range a {
		l := 1.0
		if d < len(k.Length) && k.Length[d] > 0 {
			l = k.Length[d]
		}
		diff := (a[d] - b[d]) / l
		s += diff * diff
	}
	r := math.Sqrt(s)
	c := math.Sqrt(5) * r
	return k.Variance * (1 + c + 5.0/3.0*s) * math.Exp(-c)
}

// preparedRBF is RBF with the length-scale normalization hoisted out of the
// inner loop: inverse length scales are materialized per dimension at
// construction, so Eval does one fused multiply per dimension with no
// branching. Built by prepareKernel once the input dimension is known.
type preparedRBF struct {
	variance float64
	inv      []float64
}

func (k preparedRBF) Eval(a, b []float64) float64 {
	return k.variance * math.Exp(-0.5*sqdist(k.inv, a, b))
}

// sqdist is the squared scaled distance Σ ((a_d-b_d)·inv_d)².
func sqdist(inv, a, b []float64) float64 {
	var s float64
	for d, ad := range a {
		diff := (ad - b[d]) * inv[d]
		s += diff * diff
	}
	return s
}

// row writes out[i] = Eval(x, xs[i]) for every row of xs (len(out) ==
// len(xs)), taking the exps four lanes at a time through expInPlace.
func (k preparedRBF) row(x []float64, xs [][]float64, out []float64) {
	for i, xi := range xs {
		out[i] = -0.5 * sqdist(k.inv, x, xi)
	}
	expInPlace(out)
	for i, e := range out {
		out[i] = k.variance * e
	}
}

// preparedMatern52 is Matern52 with hoisted inverse length scales.
type preparedMatern52 struct {
	variance float64
	inv      []float64
}

func (k preparedMatern52) Eval(a, b []float64) float64 {
	s := sqdist(k.inv, a, b)
	r := math.Sqrt(s)
	c := math.Sqrt(5) * r
	return k.variance * (1 + c + 5.0/3.0*s) * math.Exp(-c)
}

// invLengths expands a (possibly short or zero-filled) length-scale slice
// into dense per-dimension inverse scales, applying the same "missing or
// non-positive means 1" convention as the public kernels.
func invLengths(length []float64, dim int) []float64 {
	inv := make([]float64, dim)
	for d := range inv {
		if d < len(length) && length[d] > 0 {
			inv[d] = 1 / length[d]
		} else {
			inv[d] = 1
		}
	}
	return inv
}

// prepareKernel specializes a kernel to a known input dimension, hoisting
// per-call normalization work into construction. Unknown kernel types pass
// through unchanged.
//
// Note the prepared forms multiply by precomputed reciprocals where the
// public Eval divides; the results can differ in the last ULP, which is far
// inside every tolerance this package guarantees.
func prepareKernel(k Kernel, dim int) Kernel {
	switch kk := k.(type) {
	case RBF:
		return preparedRBF{variance: kk.Variance, inv: invLengths(kk.Length, dim)}
	case Matern52:
		return preparedMatern52{variance: kk.Variance, inv: invLengths(kk.Length, dim)}
	}
	return k
}

// kernelRow writes out[i] = eval.Eval(x, xs[i]) for every row of xs.
func kernelRow(eval Kernel, x []float64, xs [][]float64, out []float64) {
	if kern, ok := eval.(preparedRBF); ok {
		kern.row(x, xs, out)
		return
	}
	for i, xi := range xs {
		out[i] = eval.Eval(x, xi)
	}
}

// kernelSelf returns eval.Eval(x, x), under the RBF kernel without an exp:
// there the distance is 0 unless x holds a NaN or an infinity.
func kernelSelf(eval Kernel, x []float64) float64 {
	if kern, ok := eval.(preparedRBF); ok && sqdist(kern.inv, x, x) == 0 {
		return kern.variance
	}
	return eval.Eval(x, x)
}

// GP is a Gaussian Process regressor. Targets are standardized internally so
// kernel variances stay O(1). The kernel (and its prepared form) is captured
// at Fit/Append time; mutating the Kernel field after fitting has no effect
// until the next batch Fit.
type GP struct {
	Kernel Kernel
	Noise  float64 // observation noise σ² (on standardized targets)

	eval  Kernel // dimension-specialized kernel, set by Fit
	xs    [][]float64
	ys    []float64 // raw targets, kept for incremental re-standardization
	yn    []float64 // standardized targets, kept for the O(n) marginal likelihood
	alpha []float64
	chol  *linalg.Matrix
	meanY float64
	stdY  float64
	kbuf  []float64 // scratch kernel column for Append
}

// New returns an unfitted GP.
func New(k Kernel, noise float64) *GP {
	if noise <= 0 {
		noise = 1e-6
	}
	return &GP{Kernel: k, Noise: noise}
}

// ErrNoData is returned by Fit with empty inputs.
var ErrNoData = errors.New("gp: no training data")

// Fit conditions the process on the observations.
func (g *GP) Fit(xs [][]float64, ys []float64) error {
	if len(xs) == 0 || len(xs) != len(ys) {
		return ErrNoData
	}
	n := len(xs)
	cx := make([][]float64, n)
	for i, x := range xs {
		cx[i] = append([]float64(nil), x...)
	}
	cy := append([]float64(nil), ys...)
	eval := prepareKernel(g.Kernel, len(cx[0]))

	// Gram matrix + noise.
	gram := linalg.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		row := gram.Row(i)[i:]
		kernelRow(eval, cx[i], cx[i:], row)
		for j, v := range row[1:] {
			gram.Set(i+1+j, i, v)
		}
	}
	gram.AddDiag(g.Noise)
	l, err := linalg.CholeskyJitter(gram)
	if err != nil {
		return err
	}
	g.xs, g.ys, g.eval, g.chol = cx, cy, eval, l
	g.restandardize()
	return nil
}

// Append conditions the fitted process on one additional observation in
// O(n²): the cached Cholesky factor grows by a bordered row (bit-matching
// what a batch refit would compute), targets are re-standardized, and the
// dual weights re-solved against the extended factor. If the bordered pivot
// is not numerically positive — the incremental path's equivalent of
// needing jitter — it falls back to a full batch Fit. Appending to an
// unfitted GP is a batch Fit of one point.
func (g *GP) Append(x []float64, y float64) error {
	if g.chol == nil {
		return g.Fit([][]float64{x}, []float64{y})
	}
	n := len(g.xs)
	xc := append([]float64(nil), x...)
	if cap(g.kbuf) < n {
		g.kbuf = make([]float64, n, n+n/2+8)
	}
	k := g.kbuf[:n]
	kernelRow(g.eval, xc, g.xs, k)
	d := kernelSelf(g.eval, xc) + g.Noise
	chol, err := linalg.CholAppendRow(g.chol, k, d)
	if err != nil {
		return g.Fit(append(g.xs, xc), append(g.ys, y))
	}
	g.chol = chol
	g.xs = append(g.xs, xc)
	g.ys = append(g.ys, y)
	g.restandardize()
	return nil
}

// deleteAt removes training point j from the fitted process in O((n-j)²):
// the cached Cholesky factor shrinks by the matching row/column (a compact
// plus a rank-1 update of the trailing block — no refactorization), targets
// are re-standardized, and the dual weights re-solved. This is the eviction
// half of the budgeted Sparse surrogate's replace cycle; together with
// Append it swaps a point in O(n²).
func (g *GP) deleteAt(j int) {
	n := len(g.xs)
	if j < 0 || j >= n {
		return
	}
	if n == 1 {
		g.xs, g.ys = g.xs[:0], g.ys[:0]
		g.yn, g.alpha = g.yn[:0], g.alpha[:0]
		g.chol = nil
		return
	}
	g.kbuf = growVec(g.kbuf, n)
	g.chol = linalg.CholDeleteRowCol(g.chol, j, g.kbuf)
	copy(g.xs[j:], g.xs[j+1:])
	g.xs = g.xs[:n-1]
	copy(g.ys[j:], g.ys[j+1:])
	g.ys = g.ys[:n-1]
	g.restandardize()
}

// restandardize recomputes the target standardization and dual weights from
// the raw targets and the current factor, in O(n²) and without allocating
// once the buffers have grown to size.
func (g *GP) restandardize() {
	n := len(g.ys)
	var mean float64
	for _, y := range g.ys {
		mean += y
	}
	mean /= float64(n)
	var varY float64
	for _, y := range g.ys {
		d := y - mean
		varY += d * d
	}
	varY /= float64(n)
	std := math.Sqrt(varY)
	if std < 1e-12 {
		std = 1
	}
	g.meanY, g.stdY = mean, std
	g.yn = growVec(g.yn, n)
	for i, y := range g.ys {
		g.yn[i] = (y - mean) / std
	}
	g.alpha = growVec(g.alpha, n)
	linalg.CholSolveInto(g.chol, g.yn, g.alpha)
}

// growVec returns s resized to n, reallocating (with headroom) only when
// the capacity is exhausted.
func growVec(s []float64, n int) []float64 {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]float64, n, n+n/2+8)
}

// N returns the number of training points.
func (g *GP) N() int { return len(g.xs) }

// Scratch holds the reusable buffers of the allocation-free prediction
// path. A zero Scratch is ready to use; it grows to the size of the largest
// GP it has served (v to four times its size, for PredictBatch's lanes).
// A Scratch may be reused across models but must not be shared by
// concurrent goroutines (the GP itself is safe for concurrent PredictInto
// calls with distinct scratches).
type Scratch struct {
	k []float64
	v []float64
}

// Predict returns the posterior mean and variance at x (Equation 6).
func (g *GP) Predict(x []float64) (mean, variance float64) {
	var s Scratch
	return g.PredictInto(x, &s)
}

// PredictInto is Predict writing through caller-owned scratch, performing
// no allocation in steady state.
func (g *GP) PredictInto(x []float64, s *Scratch) (mean, variance float64) {
	if g.chol == nil {
		return g.meanY, 1
	}
	n := len(g.xs)
	s.k = growVec(s.k, n)
	s.v = growVec(s.v, n)
	k := s.k
	kernelRow(g.eval, x, g.xs, k)
	mu := linalg.Dot(k, g.alpha)
	v := linalg.SolveLowerInto(g.chol, k, s.v)
	variance = kernelSelf(g.eval, x) - linalg.Dot(v, v)
	if variance < 1e-12 {
		variance = 1e-12
	}
	// De-standardize.
	mean = g.meanY + g.stdY*mu
	variance *= g.stdY * g.stdY
	return mean, variance
}

// PredictBatch scores a batch of candidate points, writing the posterior
// means and variances into means and vars (which must be at least
// len(xs) long). It allocates nothing in steady state.
//
// Under the prepared RBF kernel it scores four candidates per pass, so the
// core overlaps four independent chains of floating-point operations
// instead of waiting on one. Each lane performs PredictInto's operations in
// PredictInto's order and in the same expression shapes (Go may fuse a
// multiply-add on arm64, ppc64 and s390x; identical shapes fuse alike), so
// every result has the bits PredictInto gives. A remainder of one to three
// candidates, rows of unequal length and other kernels go one at a time.
func (g *GP) PredictBatch(xs [][]float64, means, vars []float64, s *Scratch) {
	if len(means) < len(xs) || len(vars) < len(xs) {
		panic("gp: PredictBatch output length mismatch")
	}
	i := 0
	if kern, ok := g.eval.(preparedRBF); ok && g.chol != nil {
		for ; i+4 <= len(xs); i += 4 {
			q := xs[i : i+4 : i+4]
			if dim := len(q[0]); len(q[1]) != dim || len(q[2]) != dim || len(q[3]) != dim {
				break
			}
			g.predictRBF4(kern, q, means[i:i+4], vars[i:i+4], s)
		}
	}
	for ; i < len(xs); i++ {
		means[i], vars[i] = g.PredictInto(xs[i], s)
	}
}

// predictRBF4 is PredictInto for four equal-length candidates under the
// prepared RBF kernel. A first pass writes row r's four exp arguments to
// Scratch.v[4r..] for one expInPlace call; a second fuses each row's k·α
// term with its forward-substitution row of v = L⁻¹k, which needs only
// rows ≤ r, and stores lane j of v over Scratch.v[4r+j] once it is read.
func (g *GP) predictRBF4(kern preparedRBF, xs [][]float64, means, vars []float64, s *Scratch) {
	s.v = growVec(s.v, 4*len(g.xs))
	v := s.v
	x0, dim := xs[0], len(xs[0])
	x1, x2, x3, inv := xs[1][:dim], xs[2][:dim], xs[3][:dim], kern.inv[:dim]
	for r, xr := range g.xs {
		xr = xr[:dim]
		var q0, q1, q2, q3 float64
		for d, ad := range x0 {
			e0, e1, e2, e3 := (ad-xr[d])*inv[d], (x1[d]-xr[d])*inv[d], (x2[d]-xr[d])*inv[d], (x3[d]-xr[d])*inv[d]
			q0, q1, q2, q3 = q0+e0*e0, q1+e1*e1, q2+e2*e2, q3+e3*e3
		}
		vr := v[4*r : 4*r+4 : 4*r+4]
		vr[0], vr[1], vr[2], vr[3] = -0.5*q0, -0.5*q1, -0.5*q2, -0.5*q3
	}
	expInPlace(v)
	var mu0, mu1, mu2, mu3, vv0, vv1, vv2, vv3 float64
	for r := range g.xs {
		vr := v[4*r : 4*r+4 : 4*r+4]
		k0, k1, k2, k3 := kern.variance*vr[0], kern.variance*vr[1], kern.variance*vr[2], kern.variance*vr[3]
		a := g.alpha[r]
		mu0, mu1, mu2, mu3 = mu0+k0*a, mu1+k1*a, mu2+k2*a, mu3+k3*a
		lr := g.chol.Row(r)
		for c, l := range lr[:r] {
			vc := v[4*c : 4*c+4 : 4*c+4]
			k0, k1, k2, k3 = k0-l*vc[0], k1-l*vc[1], k2-l*vc[2], k3-l*vc[3]
		}
		vr[0], vr[1], vr[2], vr[3] = k0/lr[r], k1/lr[r], k2/lr[r], k3/lr[r]
		vv0, vv1, vv2, vv3 = vv0+vr[0]*vr[0], vv1+vr[1]*vr[1], vv2+vr[2]*vr[2], vv3+vr[3]*vr[3]
	}
	mu, vv := [4]float64{mu0, mu1, mu2, mu3}, [4]float64{vv0, vv1, vv2, vv3}
	for j, x := range xs {
		variance := kernelSelf(g.eval, x) - vv[j]
		if variance < 1e-12 {
			variance = 1e-12
		}
		means[j] = g.meanY + g.stdY*mu[j]
		variance *= g.stdY * g.stdY
		vars[j] = variance
	}
}

// LogMarginalLikelihood returns log p(y|X) of the fitted model (up to the
// constant term), used for hyperparameter selection. It reads the
// standardized targets stored at fit time, so it costs O(n) — no kernel
// re-evaluation.
func (g *GP) LogMarginalLikelihood() float64 {
	if g.chol == nil {
		return math.Inf(-1)
	}
	n := len(g.yn)
	fit := -0.5 * linalg.Dot(g.yn, g.alpha)
	det := -0.5 * linalg.LogDetFromChol(g.chol)
	return fit + det - 0.5*float64(n)*math.Log(2*math.Pi)
}

// FitBestGrouped grid-searches two length-scale groups — the first baseDims
// dimensions (the configuration knobs) and the remainder (guide features) —
// keeping the model with the highest marginal likelihood. The kind selects
// RBF ("rbf") or Matérn-5/2 ("matern52").
func FitBestGrouped(kind string, xs [][]float64, ys []float64, baseDims int) (*GP, error) {
	if len(xs) == 0 {
		return nil, ErrNoData
	}
	dim := len(xs[0])
	if baseDims > dim {
		baseDims = dim
	}
	baseLengths := []float64{0.1, 0.2, 0.35, 0.6, 1.0}
	extraLengths := []float64{1.0}
	if dim > baseDims {
		extraLengths = []float64{0.15, 0.35, 0.8}
	}
	noises := []float64{1e-4, 1e-2}
	var best *GP
	bestML := math.Inf(-1)
	for _, lb := range baseLengths {
		for _, le := range extraLengths {
			ls := make([]float64, dim)
			for d := range ls {
				if d < baseDims {
					ls[d] = lb
				} else {
					ls[d] = le
				}
			}
			var k Kernel
			if kind == "matern52" {
				k = Matern52{Variance: 1, Length: ls}
			} else {
				k = RBF{Variance: 1, Length: ls}
			}
			for _, noise := range noises {
				cand := New(k, noise)
				if err := cand.Fit(xs, ys); err != nil {
					continue
				}
				if ml := cand.LogMarginalLikelihood(); ml > bestML {
					best, bestML = cand, ml
				}
			}
		}
	}
	if best == nil {
		return nil, errors.New("gp: no hyperparameter setting produced a valid fit")
	}
	return best, nil
}
