// Package stats provides the descriptive statistics used by the profiler and
// the experiment harnesses: percentiles, moments, Pearson correlation, the
// coefficient of determination (R²), Spearman rank correlation, and
// box-whisker summaries for the training-overhead figures.
package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Std returns the population standard deviation of xs.
func Std(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(xs)))
}

// StdErr returns the standard error of the mean.
func StdErr(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return Std(xs) / math.Sqrt(float64(len(xs)))
}

// Min returns the minimum of xs (+Inf for empty input).
func Min(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of xs (-Inf for empty input).
func Max(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// Sum returns the sum of xs.
func Sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// Percentile returns the p-th percentile (0..100) of xs using linear
// interpolation between closest ranks. It returns 0 for empty input. It
// selects, on a copy, the order statistics sort.Float64s (NaNs first) would
// give.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	rank := float64(len(xs) - 1)
	if p <= 0 {
		rank = 0
	} else if p < 100 {
		rank *= p / 100
	}
	order := append([]float64(nil), xs...)
	lo := int(rank)
	v := nth(order, lo)
	if frac := rank - float64(lo); frac != 0 {
		// The next order statistic is the least of what nth left after lo.
		v = v*(1-frac) + nth(order[lo+1:], 0)*frac
	}
	return v
}

// nth reorders xs so that xs[k] is what sort.Float64s would put there and
// nothing after it sorts before it, and returns xs[k].
func nth(xs []float64, k int) float64 {
	lo := 0 // past the NaNs, which sort first
	for i, x := range xs {
		if x != x {
			xs[i], xs[lo] = xs[lo], x
			lo++
		}
	}
	for hi := len(xs) - 1; lo <= k && lo < hi; {
		// Three-way partition around a median of three: a run of equal
		// values is settled in one pass.
		a, b, c := xs[lo], xs[(lo+hi)/2], xs[hi]
		pivot := max(min(a, b), min(max(a, b), c))
		lt, i, gt := lo, lo, hi
		for i <= gt {
			switch x := xs[i]; {
			case x < pivot:
				xs[lt], xs[i] = x, xs[lt]
				lt, i = lt+1, i+1
			case x > pivot:
				xs[gt], xs[i] = x, xs[gt]
				gt--
			default:
				i++
			}
		}
		if k >= lt && k <= gt {
			break
		}
		if k < lt {
			hi = lt - 1
		} else {
			lo = gt + 1
		}
	}
	return xs[k]
}

// Median returns the 50th percentile.
func Median(xs []float64) float64 { return Percentile(xs, 50) }

// Pearson returns the Pearson correlation coefficient between xs and ys.
// It returns 0 when either series is constant or the lengths differ.
func Pearson(xs, ys []float64) float64 {
	if len(xs) != len(ys) || len(xs) < 2 {
		return 0
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

// RSquared returns the coefficient of determination of predictions pred
// against observations obs: 1 - SS_res/SS_tot. A perfect model scores 1;
// models worse than predicting the mean score negative.
func RSquared(obs, pred []float64) float64 {
	if len(obs) != len(pred) || len(obs) == 0 {
		return 0
	}
	m := Mean(obs)
	var ssRes, ssTot float64
	for i := range obs {
		d := obs[i] - pred[i]
		ssRes += d * d
		t := obs[i] - m
		ssTot += t * t
	}
	if ssTot == 0 {
		if ssRes == 0 {
			return 1
		}
		return 0
	}
	return 1 - ssRes/ssTot
}

// Ranks returns the (average-tie) ranks of xs, 1-based.
func Ranks(xs []float64) []float64 {
	n := len(xs)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	ranks := make([]float64, n)
	for i := 0; i < n; {
		j := i
		for j+1 < n && xs[idx[j+1]] == xs[idx[i]] {
			j++
		}
		avg := (float64(i+1) + float64(j+1)) / 2
		for k := i; k <= j; k++ {
			ranks[idx[k]] = avg
		}
		i = j + 1
	}
	return ranks
}

// Spearman returns the Spearman rank correlation between xs and ys.
func Spearman(xs, ys []float64) float64 {
	return Pearson(Ranks(xs), Ranks(ys))
}

// BoxSummary captures the quantities of a box-whisker plot as used by the
// paper's Figures 18 and 19.
type BoxSummary struct {
	Min, Q25, Median, Q75, Max float64
	N                          int
}

// Box computes a BoxSummary for xs.
func Box(xs []float64) BoxSummary {
	return BoxSummary{
		Min:    Min(xs),
		Q25:    Percentile(xs, 25),
		Median: Percentile(xs, 50),
		Q75:    Percentile(xs, 75),
		Max:    Max(xs),
		N:      len(xs),
	}
}
