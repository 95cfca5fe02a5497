// Package gp implements Gaussian Process regression — the surrogate model of
// the paper's Bayesian Optimization (§5.1, Equation 6): the ARD RBF kernel,
// exact inference via Cholesky factorization, posterior mean and variance,
// and a small marginal-likelihood grid search for the kernel
// hyperparameters.
//
// The regressor supports two training paths. Fit is the batch path: it
// rebuilds the Gram matrix and runs a fresh O(n³) factorization. Append is
// the incremental path: conditioning on one new observation extends the
// cached Cholesky factor by a bordered row in O(n²), producing bit-for-bit
// the factor a batch refit would (falling back to a jittered batch refit
// when the bordered pivot is not numerically positive). Prediction has
// allocation-free variants (PredictInto, PredictBatch) that write into a
// caller-owned Scratch; PredictBatch scores RBF candidates sixteen per pass
// on amd64 (an assembly kernel with no FMA, checked against PredictInto at
// start-up), one at a time through PredictInto otherwise, and returns, bit
// for bit, what PredictInto returns for each. An RBF kernel row takes its
// exps in one call: on amd64 with AVX2 and FMA four lanes per instruction,
// with math.Exp's bits (checked against it at start-up; on a mismatch
// every row stays on math.Exp). Scheduled, the tuners' surrogate, is the
// exact GP over every observation with hyperparameter re-selection
// throttled, so streaming observations pay the grid search only every few
// appends instead of on every one.
package gp

import (
	"errors"
	"math"
	"slices"

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

// invLengths expands a (possibly short or zero-filled) length-scale slice
// into dense per-dimension inverse scales, applying the same "missing or
// non-positive means 1" convention as the public kernel.
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
// Note the prepared form multiplies by precomputed reciprocals where the
// public Eval divides; the results can differ in the last ULP, which is far
// inside every tolerance this package guarantees.
func prepareKernel(k Kernel, dim int) Kernel {
	if kk, ok := k.(RBF); ok {
		return preparedRBF{variance: kk.Variance, inv: invLengths(kk.Length, dim)}
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
	cx, cy := copyRows(xs, ys)
	return g.fitRows(cx, cy, linalg.NewMatrix(len(cx), len(cx)))
}

// copyRows copies the training rows and targets, each slice at exactly its
// length, so that the first Append to a model holding them reallocates
// rather than write into an array other models share.
func copyRows(xs [][]float64, ys []float64) ([][]float64, []float64) {
	cx := make([][]float64, len(xs))
	for i, x := range xs {
		cx[i] = slices.Clone(x)
	}
	return cx, slices.Clip(slices.Clone(ys))
}

// fitRows is Fit on rows and targets the model takes as they are, with
// gram (n×n) as the Gram matrix's storage. The factor goes into g.chol's
// storage when it has the size (a factor of n rows) and the dual weights
// into g's vectors.
func (g *GP) fitRows(cx [][]float64, cy []float64, gram *linalg.Matrix) error {
	n := len(cx)
	eval := prepareKernel(g.Kernel, len(cx[0]))
	for i := 0; i < n; i++ {
		row := gram.Row(i)[i:]
		kernelRow(eval, cx[i], cx[i:], row)
		for j, v := range row[1:] {
			gram.Set(i+1+j, i, v)
		}
	}
	gram.AddDiag(g.Noise)
	l, err := linalg.CholeskyJitter(gram, g.chol)
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
// GP it has served (v to sixteen times its size, for PredictBatch's lanes,
// and k to sixteen candidates' coordinates).
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
	return g.posterior(x, mu, linalg.Dot(v, v))
}

// posterior turns k·α and v·v at x into the de-standardized posterior mean
// and variance.
func (g *GP) posterior(x []float64, mu, vv float64) (mean, variance float64) {
	variance = kernelSelf(g.eval, x) - vv
	if variance < 1e-12 {
		variance = 1e-12
	}
	return g.meanY + g.stdY*mu, variance * (g.stdY * g.stdY)
}

// PredictBatch scores a batch of candidate points, writing the posterior
// means and variances into means and vars (which must be at least
// len(xs) long). It allocates nothing in steady state.
//
// Under the prepared RBF kernel, where the packed kernel is on, it scores
// sixteen equal-length candidates per pass (predictRBF16), so the core
// overlaps independent chains of floating-point operations instead of
// waiting on one. Each lane performs PredictInto's operations in
// PredictInto's order and fuses no multiply-add, so every result has the
// bits PredictInto gives. A remainder, rows of unequal length, other
// kernels and other platforms go one candidate at a time through
// PredictInto.
func (g *GP) PredictBatch(xs [][]float64, means, vars []float64, s *Scratch) {
	if len(means) < len(xs) || len(vars) < len(xs) {
		panic("gp: PredictBatch output length mismatch")
	}
	i := 0
	if kern, ok := g.eval.(preparedRBF); ok && havePredict16 && g.chol != nil {
		for ; i+16 <= len(xs) && sameLen(xs[i:i+16]); i += 16 {
			g.predictRBF16(kern, xs[i:i+16], means[i:i+16], vars[i:i+16], s)
		}
	}
	for ; i < len(xs); i++ {
		means[i], vars[i] = g.PredictInto(xs[i], s)
	}
}

// sameLen reports whether every row of xs is as long as the first.
func sameLen(xs [][]float64) bool {
	for _, x := range xs[1:] {
		if len(x) != len(xs[0]) {
			return false
		}
	}
	return true
}

// predictRBF16 is PredictInto for sixteen equal-length candidates under
// the prepared RBF kernel, both passes in assembly four lanes per register.
// With the candidates' coordinates transposed into Scratch.k, dist16 writes
// row r's sixteen exp arguments to Scratch.v[16r..] for one expInPlace
// call; predict16 then fuses each row's k·α term with its
// forward-substitution row of v = L⁻¹k, which needs only rows ≤ r, and
// stores lane j of v over Scratch.v[16r+j] once it is read.
func (g *GP) predictRBF16(kern preparedRBF, xs [][]float64, means, vars []float64, s *Scratch) {
	n, dim := len(g.xs), len(xs[0])
	s.k = growVec(s.k, 16*dim)
	s.v = growVec(s.v, 16*n)
	cols, v, inv := s.k, s.v, kern.inv[:dim]
	for j, x := range xs {
		for d, xd := range x[:dim] {
			cols[16*d+j] = xd
		}
	}
	for _, xr := range g.xs {
		_ = xr[:dim] // PredictInto panics on a short row too
	}
	dist16(cols, inv, g.xs, v)
	expInPlace(v)
	var mu, vv [16]float64
	predict16(v[:16*n], g.alpha[:n], g.chol.Data[:n*g.chol.Cols], g.chol.Cols, kern.variance, &mu, &vv)
	for j, x := range xs {
		means[j], vars[j] = g.posterior(x, mu[j], vv[j])
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
// keeping the RBF model with the highest marginal likelihood.
func FitBestGrouped(xs [][]float64, ys []float64, baseDims int) (*GP, error) {
	if len(xs) == 0 {
		return nil, ErrNoData
	}
	var best *GP
	if len(xs) == len(ys) {
		gr := newGrid(copyRows(xs, ys))
		bestML := math.Inf(-1)
		for _, c := range groupedCells(len(xs[0]), baseDims) {
			cand, ok := gr.fit(c.kernel, c.noise)
			if !ok {
				continue
			}
			if ml := cand.LogMarginalLikelihood(); ml > bestML {
				cand, best, bestML = best, cand, ml
			}
			gr.lose(cand)
		}
	}
	if best == nil {
		return nil, errors.New("gp: no hyperparameter setting produced a valid fit")
	}
	return best, nil
}

// cell is one kernel and noise level of a hyperparameter grid.
type cell struct {
	kernel RBF
	noise  float64
}

// groupedCells is FitBestGrouped's grid over rows of dim dimensions, in the
// order it is searched: the base length scale outermost, the noise level
// innermost.
func groupedCells(dim, baseDims int) []cell {
	baseDims = min(baseDims, dim)
	baseLengths := []float64{0.1, 0.2, 0.35, 0.6, 1.0}
	extraLengths := []float64{1.0}
	if dim > baseDims {
		extraLengths = []float64{0.15, 0.35, 0.8}
	}
	var cells []cell
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
			for _, noise := range []float64{1e-4, 1e-2} {
				cells = append(cells, cell{RBF{Variance: 1, Length: ls}, noise})
			}
		}
	}
	return cells
}

// grid fits candidate kernels to one set of training rows, which every
// candidate shares: the rows are copied once, one Gram matrix is rebuilt
// in place for each fit, and the factor and vectors of a candidate that
// lost serve the next. Each fit is New(k, noise).Fit on the rows, bit for
// bit.
type grid struct {
	xs    [][]float64
	ys    []float64
	gram  *linalg.Matrix
	spare *GP // a losing candidate, nil when there is none
}

// newGrid fits over rows and targets the grid's models take as they are.
func newGrid(xs [][]float64, ys []float64) *grid {
	return &grid{xs: xs, ys: ys, gram: linalg.NewMatrix(len(xs), len(xs))}
}

// fit fits one candidate and reports whether the factorization succeeded.
func (gr *grid) fit(k RBF, noise float64) (*GP, bool) {
	g := New(k, noise)
	if s := gr.spare; s != nil {
		g.chol, g.yn, g.alpha = s.chol, s.yn, s.alpha
		gr.spare = nil
	}
	if err := g.fitRows(gr.xs, gr.ys, gr.gram); err != nil {
		gr.lose(g)
		return nil, false
	}
	return g, true
}

// lose hands a candidate the caller drops, if any, to the next fit. The
// caller must hold no other reference to it.
func (gr *grid) lose(g *GP) {
	if g != nil {
		gr.spare = g
	}
}
