// Package bo implements Bayesian Optimization over the memory-configuration
// space (§5.1): a Gaussian-Process surrogate, the Expected Improvement
// acquisition function (Equation 7) maximized by random sampling plus
// coordinate hill-climbing, Latin-Hypercube bootstrap (Table 7), and the
// CherryPick stopping rule (EI below 10% of the incumbent and at least six
// new samples).
//
// The Extra hook injects additional surrogate features and the Penalty hook
// shapes the acquisition; package gbo uses them to plug in the white-box
// model Q (Equation 8), turning BO into GBO.
package bo

import (
	"math"

	"relm/internal/conf"
	"relm/internal/gp"
	"relm/internal/obs"
)

// bootstrapSamples is the LHS bootstrap size: the space's dimensionality,
// as in §6.1.
const bootstrapSamples = 4

// Options tunes the optimizer. Zero values select the paper's settings.
type Options struct {
	// MinNewSamples must be observed after bootstrap before the EI stopping
	// rule may fire (default 6, from CherryPick).
	MinNewSamples int
	// EIFraction stops the search when the maximum expected improvement
	// drops below this fraction of the incumbent objective (default 0.10).
	EIFraction float64
	// MaxIterations caps the adaptive samples (default 25).
	MaxIterations int
	// Surrogate overrides the response-surface model (the Random-Forest
	// adapter in internal/rf); when nil the tuner uses the paper's
	// RBF-kernel GP, exact over every observation (gp.Scheduled).
	Surrogate gp.Surrogate
	// UsePaperLHS bootstraps with the exact Table 7 samples instead of a
	// seeded random Latin hypercube.
	UsePaperLHS bool
	// Seed drives the acquisition sampling.
	Seed uint64
	// SurrogateAppendHist, SurrogateRefitHist, and AcquisitionHist, when
	// set, record per-stage latency: incremental GP appends, full
	// hyperparameter re-selections, and EI maximization respectively.
	SurrogateAppendHist *obs.Histogram
	SurrogateRefitHist  *obs.Histogram
	AcquisitionHist     *obs.Histogram
}

func (o *Options) fill() {
	if o.MinNewSamples == 0 {
		o.MinNewSamples = 6
	}
	if o.EIFraction == 0 {
		o.EIFraction = 0.10
	}
	if o.MaxIterations == 0 {
		o.MaxIterations = 25
	}
}

// Extra computes additional surrogate features for a candidate point.
// x is the normalized configuration; cfg its decoded form. It is consulted
// at surrogate-fit time, so implementations may evolve as profiles arrive
// (GBO builds its guide model from the first bootstrap sample's profile).
// The tuner copies the returned slice before the next call, so an
// implementation may return the same buffer every time.
type Extra func(x []float64, cfg conf.Config) []float64

// Penalty scales the acquisition value of a candidate (1 = neutral); GBO
// uses it to de-prioritize regions its white-box model marks unsafe or
// wasteful. It must return a value in [0, 1]: the acquisition skips it for
// candidates whose unpenalized expected improvement already cannot win,
// which is exact only because such a penalty never raises a non-negative
// value.
type Penalty func(x []float64, cfg conf.Config) float64

func bestObjective(ys []float64) float64 {
	best := math.Inf(1)
	for _, y := range ys {
		if y < best {
			best = y
		}
	}
	return best
}

// ExpectedImprovement is Equation 7 for minimization: the expected amount by
// which a sample at (mean, variance) improves on the incumbent tau.
func ExpectedImprovement(mean, variance, tau float64) float64 {
	sd := math.Sqrt(variance)
	if sd < 1e-12 {
		if mean < tau {
			return tau - mean
		}
		return 0
	}
	z := (tau - mean) / sd
	return (tau-mean)*normCDF(z) + sd*normPDF(z)
}

func normCDF(z float64) float64 { return 0.5 * math.Erfc(-z/math.Sqrt2) }
func normPDF(z float64) float64 { return math.Exp(-0.5*z*z) / math.Sqrt(2*math.Pi) }

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
