// Package rf implements a Random-Forest regressor: bagged CART trees with
// random feature subsets at each split. The ensemble spread provides the
// uncertainty estimate that lets the forest stand in for the Gaussian
// Process as a Bayesian-optimization surrogate — the alternative surrogate
// the paper evaluates in Figure 26.
package rf

import (
	"math"
	"sort"

	"relm/internal/simrand"
)

// Figure 26's forest, at the one setting the paper runs it.
const (
	trees    = 64 // ensemble size
	minLeaf  = 2  // a node this small is a leaf
	maxDepth = 12
)

// featureFrac is the fraction of a dim-dimensional input's features a split
// tries: the 1/√d rule, at least a third.
func featureFrac(dim int) float64 { return math.Max(0.34, 1/math.Sqrt(float64(dim))) }

// Options seeds training.
type Options struct {
	Seed uint64
}

type node struct {
	feature   int
	threshold float64
	left      *node
	right     *node
	value     float64
	leaf      bool
}

// Forest is a trained random forest.
type Forest struct {
	trees []*node
	dim   int
}

// Train fits a forest on the samples. It panics on empty input.
func Train(xs [][]float64, ys []float64, opts Options) *Forest {
	if len(xs) == 0 || len(xs) != len(ys) {
		panic("rf: bad training data")
	}
	rng := simrand.New(opts.Seed ^ 0xda3e39cb94b95bdb)
	f := &Forest{dim: len(xs[0])}
	n := len(xs)
	for t := 0; t < trees; t++ {
		// Bootstrap sample.
		idx := make([]int, n)
		for i := range idx {
			idx[i] = rng.Intn(n)
		}
		f.trees = append(f.trees, buildTree(xs, ys, idx, 0, rng))
	}
	return f
}

func buildTree(xs [][]float64, ys []float64, idx []int, depth int, rng *simrand.Rand) *node {
	if len(idx) <= minLeaf || depth >= maxDepth || constantTargets(ys, idx) {
		return &node{leaf: true, value: meanAt(ys, idx)}
	}
	dim := len(xs[0])
	nFeat := int(math.Ceil(featureFrac(dim) * float64(dim)))
	if nFeat < 1 {
		nFeat = 1
	}

	bestFeat, bestThr := -1, 0.0
	bestScore := math.Inf(1)
	perm := rng.Perm(dim)
	for _, d := range perm[:nFeat] {
		vals := make([]float64, 0, len(idx))
		for _, i := range idx {
			vals = append(vals, xs[i][d])
		}
		sort.Float64s(vals)
		// Candidate thresholds: up to 8 quantile midpoints.
		for q := 1; q <= 8; q++ {
			pos := q * (len(vals) - 1) / 9
			if pos+1 >= len(vals) {
				break
			}
			thr := (vals[pos] + vals[pos+1]) / 2
			if vals[pos] == vals[pos+1] {
				continue
			}
			if score, ok := splitScore(xs, ys, idx, d, thr); ok && score < bestScore {
				bestScore, bestFeat, bestThr = score, d, thr
			}
		}
	}
	if bestFeat < 0 {
		return &node{leaf: true, value: meanAt(ys, idx)}
	}

	var li, ri []int
	for _, i := range idx {
		if xs[i][bestFeat] <= bestThr {
			li = append(li, i)
		} else {
			ri = append(ri, i)
		}
	}
	return &node{
		feature:   bestFeat,
		threshold: bestThr,
		left:      buildTree(xs, ys, li, depth+1, rng),
		right:     buildTree(xs, ys, ri, depth+1, rng),
	}
}

// splitScore returns the summed squared error of the two sides.
func splitScore(xs [][]float64, ys []float64, idx []int, d int, thr float64) (float64, bool) {
	var nl, nr int
	var sl, sr, ql, qr float64
	for _, i := range idx {
		y := ys[i]
		if xs[i][d] <= thr {
			nl++
			sl += y
			ql += y * y
		} else {
			nr++
			sr += y
			qr += y * y
		}
	}
	if nl < minLeaf || nr < minLeaf {
		return 0, false
	}
	sseL := ql - sl*sl/float64(nl)
	sseR := qr - sr*sr/float64(nr)
	return sseL + sseR, true
}

func constantTargets(ys []float64, idx []int) bool {
	for _, i := range idx[1:] {
		if ys[i] != ys[idx[0]] {
			return false
		}
	}
	return true
}

func meanAt(ys []float64, idx []int) float64 {
	if len(idx) == 0 {
		return 0
	}
	var s float64
	for _, i := range idx {
		s += ys[i]
	}
	return s / float64(len(idx))
}

func (n *node) predict(x []float64) float64 {
	for !n.leaf {
		if x[n.feature] <= n.threshold {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n.value
}

// Predict returns the ensemble mean and variance at x.
func (f *Forest) Predict(x []float64) (mean, variance float64) {
	var s, q float64
	for _, t := range f.trees {
		v := t.predict(x)
		s += v
		q += v * v
	}
	n := float64(len(f.trees))
	mean = s / n
	variance = q/n - mean*mean
	if variance < 1e-9 {
		variance = 1e-9
	}
	return mean, variance
}
