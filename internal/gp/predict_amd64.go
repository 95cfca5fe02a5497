package gp

import "math"

// dist16 is predictRBF16's first pass: it sets v[16r+j] =
// -0.5·Σ_d ((cols[16d+j] − xs[r][d])·inv[d])², summed in ascending d, for
// every row r of xs; cols holds coordinate d of lane j at 16d+j. Every row
// of xs must be at least len(inv) long.
//
//go:noescape
func dist16(cols, inv []float64, xs [][]float64, v []float64)

// predict16 is predictRBF16's second pass: for each row r
// of the factor l (row stride cols) it takes lane j's exp from v[16r+j],
// adds σ²·e·α_r to mu[j], substitutes v_r = (σ²·e − Σ_{c<r} l_rc·v_c)/l_rr
// over v[16r+j] and adds v_r² to vv[j]. len(alpha) is the row count.
//
//go:noescape
func predict16(v, alpha, l []float64, cols int, variance float64, mu, vv *[16]float64)

// canPredict16 reports whether the CPU runs dist16 and predict16: they
// need AVX, checked here as exp4's AVX2 and FMA.
var canPredict16 = hasAVX2FMA()

// havePredict16 reports whether PredictBatch scores sixteen lanes per pass:
// the CPU can, and the kernels give PredictInto's bits on a fixed fixture.
// Tests switch it to cover either path.
var havePredict16 = canPredict16 && predict16MatchesGo()

// predict16MatchesGo scores sixteen fixed candidates under a small fitted
// RBF model through predictRBF16 and one at a time through PredictInto,
// and reports whether every mean and variance has the same bits.
func predict16MatchesGo() bool {
	xs, ys := make([][]float64, 9), make([]float64, 9)
	for i := range xs {
		xs[i] = []float64{float64(i*7%11) / 10, float64(i*3%5) / 4, float64(i*5%9) / 8}
		ys[i] = float64(i%4) - 1.5
	}
	g := New(RBF{Variance: 1.3, Length: []float64{0.4, 0.6, 0.9}}, 1e-4)
	if g.Fit(xs, ys) != nil {
		return false
	}
	cands := make([][]float64, 16)
	for j := range cands {
		cands[j] = []float64{float64(j*5%13) / 12, float64(j*2%7) / 6, float64(j%3) / 2}
	}
	var s Scratch
	var means, vars [16]float64
	g.predictRBF16(g.eval.(preparedRBF), cands, means[:], vars[:], &s)
	for j, x := range cands {
		mean, variance := g.PredictInto(x, &s)
		if math.Float64bits(means[j]) != math.Float64bits(mean) || math.Float64bits(vars[j]) != math.Float64bits(variance) {
			return false
		}
	}
	return true
}
