package gp

import (
	"math"
	"testing"
)

// archExpModel replays math/exp_amd64.s in Go for x in [-708, 0], through
// its FMA path (fused) or its SSE2 path (every product rounded).
func archExpModel(x float64, fused bool) float64 {
	const (
		log2e = 1.4426950408889634073599246810018920
		ln2U  = 0.69314718055966295651160180568695068359375
		ln2L  = 0.28235290563031577122588448175013436025525412068e-12
	)
	fma := func(a, b, c float64) float64 {
		if fused {
			return math.FMA(a, b, c)
		}
		return float64(a*b) + c
	}
	k := math.RoundToEven(log2e * x)
	x = fma(-k, ln2U, x)
	x = fma(-k, ln2L, x)
	x *= 0.0625
	t := 2.4801587301587301587e-5
	for _, c := range []float64{1.9841269841269841270e-4, 1.3888888888888888889e-3,
		8.3333333333333333333e-3, 4.1666666666666666667e-2, 1.6666666666666666667e-1, 0.5, 1} {
		t = fma(t, x, c)
	}
	x *= t
	for i := 0; i < 3; i++ {
		x *= x + 2
	}
	x = fma(x, x+2, 1)
	return x * math.Float64frombits(uint64(int64(k)+1023)<<52)
}

// TestExpCheckSeesTheSSE2Path holds the start-up self-check to its job. On
// several of its arguments math.Exp's two amd64 paths round differently, so
// a math.Exp without FMA (GODEBUG=cpu.fma=off) fails the check and
// expInPlace stays on math.Exp. On a CPU with AVX2 and FMA whose math.Exp
// fuses, the check must pass: a kernel that fails it is broken, not
// merely unused.
func TestExpCheckSeesTheSSE2Path(t *testing.T) {
	differ, mathFused := 0, true
	for _, x := range expCheckArgs() {
		fused, sse2, got := archExpModel(x, true), archExpModel(x, false), math.Exp(x)
		if got != fused && got != sse2 {
			t.Fatalf("math.Exp(%v) = %v, neither path of the model (%v, %v)", x, got, fused, sse2)
		}
		if fused != sse2 {
			differ++
			mathFused = mathFused && got == fused
		}
	}
	if differ < 4 {
		t.Fatalf("the two paths differ on %d check arguments, want at least 4", differ)
	}
	if want := hasAVX2FMA() && mathFused; haveExp4 != want {
		t.Fatalf("haveExp4 = %v with AVX2+FMA %v and a fused math.Exp %v", haveExp4, hasAVX2FMA(), mathFused)
	}
}
