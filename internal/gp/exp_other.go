//go:build !amd64

package gp

import "math"

var haveExp4 = false // only amd64 has the packed kernel; tests may set this

// expInPlace sets every x[i] = math.Exp(x[i]).
func expInPlace(x []float64) {
	for i, v := range x {
		x[i] = math.Exp(v)
	}
}
