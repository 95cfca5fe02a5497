package gp

import (
	"math"
	"testing"

	"relm/internal/simrand"
)

// forEachExpPath runs f with the packed exp kernel (where the CPU has it)
// and again with haveExp4 switched off, on math.Exp one lane at a time.
func forEachExpPath(t *testing.T, f func(t *testing.T)) {
	saved := haveExp4
	defer func() { haveExp4 = saved }()
	for _, packed := range []bool{true, false} {
		if packed && !saved {
			continue
		}
		name := "mathexp"
		if packed {
			name = "packed"
		}
		haveExp4 = packed
		t.Run(name, f)
	}
}

// expMatches fails t unless expInPlace gives math.Exp's bits on every
// element of xs.
func expMatches(t *testing.T, xs []float64) {
	t.Helper()
	got := append([]float64(nil), xs...)
	expInPlace(got)
	for i, x := range xs {
		if want := math.Exp(x); math.Float64bits(got[i]) != math.Float64bits(want) {
			t.Fatalf("exp(%v) [lane %d of %d] = %v (%#x), math.Exp gives %v (%#x)",
				x, i, len(xs), got[i], math.Float64bits(got[i]), want, math.Float64bits(want))
		}
	}
}

// TestExpIsMathExp holds expInPlace to math.Exp bit for bit: on a million
// seeded arguments log-uniform in [-708, 0], on the edges of the packed
// range, on the lanes it leaves to math.Exp (positive, below -708, ±Inf,
// NaN) mixed into packed groups at every position, and on every length from
// 0 to 9 (the tails shorter than a group).
func TestExpIsMathExp(t *testing.T) {
	forEachExpPath(t, func(t *testing.T) {
		rng := simrand.New(38)
		buf := make([]float64, 1000)
		for done := 0; done < 1_000_000; done += len(buf) {
			for i := range buf {
				buf[i] = -math.Exp(rng.Range(math.Log(0x1p-40), math.Log(708)))
			}
			expMatches(t, buf)
		}

		edges := []float64{-708, -707.99, math.Copysign(0, -1), 0, -5e-324}
		outside := []float64{0.5, 1, 709, 710, -708.0000000001, -745, -746, -1e308,
			math.Inf(1), math.Inf(-1), math.NaN(), 5e-324}
		for _, e := range append(edges, outside...) {
			for n := 0; n <= 9; n++ {
				for at := 0; at < n; at++ {
					xs := make([]float64, n)
					for i := range xs {
						xs[i] = -0.37 * float64(i+1)
					}
					xs[at] = e
					expMatches(t, xs)
				}
			}
		}
		for n := 0; n <= 9; n++ {
			expMatches(t, buf[:n])
		}
	})
}

// FuzzExp holds expInPlace to math.Exp on any five arguments: one group of
// four and a tail of one, or any shorter prefix.
func FuzzExp(f *testing.F) {
	f.Add(-1.0, -2.0, -3.0, -4.0, -5.0)
	f.Add(-708.0, -0.0, 1.0, math.NaN(), -709.0)
	f.Fuzz(func(t *testing.T, a, b, c, d, e float64) {
		xs := []float64{a, b, c, d, e}
		for n := range xs {
			expMatches(t, xs[:n+1])
		}
	})
}

// evalOnly hides a prepared kernel's type, so the GP computes every kernel
// value through Eval, one math.Exp at a time.
type evalOnly struct{ k Kernel }

func (e evalOnly) Eval(a, b []float64) float64 { return e.k.Eval(a, b) }

// TestKernelRowsAreEval holds the RBF kernel rows to the kernel itself: a GP
// whose rows go through preparedRBF.row (and expInPlace) must fit, append
// and predict with the bits of one whose every value is preparedRBF.Eval —
// the Cholesky factor, the dual weights, PredictInto and PredictBatch — on
// both exp paths, at BO's and GBO's dimensions, with far rows whose
// kernel values underflow.
func TestKernelRowsAreEval(t *testing.T) {
	forEachExpPath(t, func(t *testing.T) {
		var s, ws Scratch
		for _, dim := range []int{4, 7} {
			xs, ys := synth(simrand.New(uint64(dim)), 40, dim)
			far := make([]float64, dim)
			for d := range far {
				far[d] = 40
			}
			xs[7] = far
			pool, _ := benchData(259, dim)
			pool[3] = far
			for _, l := range []float64{0.1, 0.35, 1} {
				kern := preparedRBF{variance: 1.3, inv: invLengths(constLengths(dim, l), dim)}
				g, want := New(RBF{Variance: 1.3, Length: constLengths(dim, l)}, 1e-4), New(evalOnly{kern}, 1e-4)
				for _, m := range []*GP{g, want} {
					if err := m.Fit(xs[:20], ys[:20]); err != nil {
						t.Fatal(err)
					}
					for i := 20; i < len(xs); i++ {
						if err := m.Append(xs[i], ys[i]); err != nil {
							t.Fatal(err)
						}
					}
				}
				sameBits(t, "Cholesky factor", g.chol.Data, want.chol.Data)
				sameBits(t, "dual weights", g.alpha, want.alpha)
				means, vars := make([]float64, len(pool)), make([]float64, len(pool))
				g.PredictBatch(pool, means, vars, &s)
				for i, x := range pool {
					wm, wv := want.PredictInto(x, &ws)
					m, v := g.PredictInto(x, &s)
					sameBits(t, "PredictInto", []float64{m, v}, []float64{wm, wv})
					sameBits(t, "PredictBatch", []float64{means[i], vars[i]}, []float64{wm, wv})
				}
			}
		}
	})
}

func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v, Eval gives %v", what, i, got[i], want[i])
		}
	}
}
