package gp

import "math"

// hasAVX2FMA reports whether the CPU and the OS support AVX2 and FMA.
func hasAVX2FMA() bool

// exp4 sets x[i] = math.Exp(x[i]), four lanes per instruction, over the
// leading groups of four whose lanes all lie in [-708, 0] or at or below
// -746 (where math.Exp is +0), and returns how many elements it set.
//
//go:noescape
func exp4(x []float64) int

// haveExp4 reports whether expInPlace packs: the CPU can, and exp4 gives
// math.Exp's bits on expCheckArgs. exp4 always fuses, so the check fails
// when math.Exp does not (GODEBUG=cpu.fma=off or cpu.avx=off). Tests switch
// it off to cover the fallback.
var haveExp4 = hasAVX2FMA() && exp4MatchesMath()

// expInPlace sets every x[i] = math.Exp(x[i]), bit for bit. A group of four
// with a lane in (-746, -708), above 0 or NaN goes one lane at a time, a
// tail of one to three through a zero-padded group.
func expInPlace(x []float64) {
	for haveExp4 && len(x) >= 4 {
		n := exp4(x)
		if n == 0 {
			n = 4
			for i, v := range x[:4] {
				x[i] = math.Exp(v)
			}
		}
		x = x[n:]
	}
	if haveExp4 && len(x) > 0 {
		var pad [4]float64
		copy(pad[:], x)
		if exp4(pad[:]) == 4 {
			copy(x, pad[:])
			return
		}
	}
	for i, v := range x {
		x[i] = math.Exp(v)
	}
}

// expCheckArgs spans [-708, 0] in 128 even steps. math.Exp's SSE2 path
// rounds about one in fourteen of them otherwise than its FMA path.
func expCheckArgs() []float64 {
	xs := make([]float64, 128)
	for i := range xs {
		xs[i] = -708 * float64(i) / 127
	}
	return xs
}

func exp4MatchesMath() bool {
	xs := expCheckArgs()
	y := append([]float64(nil), xs...)
	if exp4(y) != len(y) {
		return false
	}
	for i, v := range xs {
		if math.Float64bits(y[i]) != math.Float64bits(math.Exp(v)) {
			return false
		}
	}
	return true
}
