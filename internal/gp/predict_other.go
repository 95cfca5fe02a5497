//go:build !amd64

package gp

// Only amd64 has the packed predict; tests may set havePredict16.
var canPredict16, havePredict16 = false, false

func dist16(cols, inv []float64, xs [][]float64, v []float64) {
	panic("gp: no packed predict off amd64")
}

func predict16(v, alpha, l []float64, cols int, variance float64, mu, vv *[16]float64) {
	panic("gp: no packed predict off amd64")
}
