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
	"relm/internal/tune"
)

// SurrogateConfig groups everything that shapes the response-surface model:
// the kernel family, the active-set cap, the re-selection schedule, and the
// full-model override. The zero value selects the paper's settings
// (RBF-kernel GP, exact over every observation up to the default cap).
type SurrogateConfig struct {
	// Kernel selects the kernel family: "rbf" (default) or "matern52".
	Kernel string
	// Model overrides the surrogate entirely (e.g. the Random-Forest
	// adapter in internal/rf); when nil a hyperparameter-tuned GP is used.
	Model gp.Surrogate
	// Budget caps the GP's active set at this many points, so appends and
	// predictions stay at m-point cost no matter how long the session runs;
	// below the cap the GP is exact. Default gp.DefaultSparseBudget.
	// Ignored when Model is set.
	Budget int
	// RefitEvery throttles hyperparameter re-selection (grid + ARD) to once
	// per this many incremental observations; between selections a new
	// sample is absorbed by an O(n²) GP append instead of an O(n³) refit.
	// Default 8; 1 restores the legacy re-selection on every observation.
	RefitEvery int
	// RefitDrift re-selects hyperparameters early when the surrogate's
	// per-point log marginal likelihood has dropped this much since the
	// last selection (default 0.25; negative disables the drift trigger).
	RefitDrift float64
	// ARDIters bounds the per-dimension length-scale gradient ascent run on
	// top of the grid at each re-selection (default gp.DefaultARDIters;
	// negative disables ARD and restores the pure grid).
	ARDIters int
}

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
	// Surrogate configures the response-surface model.
	Surrogate SurrogateConfig
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
	if o.Surrogate.Kernel == "" {
		o.Surrogate.Kernel = "rbf"
	}
}

// Extra computes additional surrogate features for a candidate point.
// x is the normalized configuration; cfg its decoded form. It is consulted
// at surrogate-fit time, so implementations may evolve as profiles arrive
// (GBO builds its guide model from the first bootstrap sample's profile).
type Extra func(x []float64, cfg conf.Config) []float64

// Penalty scales the acquisition value of a candidate (1 = neutral); GBO
// uses it to de-prioritize regions its white-box model marks unsafe or
// wasteful.
type Penalty func(x []float64, cfg conf.Config) float64

// Surrogate is the minimal Predict-only view of a response-surface model
// (the model-quality study in internal/experiments compares several). The
// tuner itself drives the richer gp.Surrogate interface.
type Surrogate interface {
	Predict(x []float64) (mean, variance float64)
}

// Result reports one optimization run.
type Result struct {
	Best       tune.Sample
	Found      bool
	Iterations int       // adaptive samples taken after bootstrap
	Curve      []float64 // best objective so far, one entry per evaluation
}

// Run optimizes the evaluator's workload by driving the incremental Tuner
// to completion. Each Eval is one stress-test experiment on the (simulated)
// cluster. extra and penalty may be nil.
func Run(ev *tune.Evaluator, opts Options, extra Extra, penalty ...Penalty) Result {
	var pen Penalty
	if len(penalty) > 0 {
		pen = penalty[0]
	}
	t := NewTuner(ev.Space, opts, extra, pen)
	tune.Drive(t, ev, 0)
	res := t.Result()
	if !res.Found {
		if best, ok := ev.Best(); ok {
			res.Best, res.Found = best, true
		}
	}
	return res
}

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
