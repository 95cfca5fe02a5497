package gp

// SurrogateStats are the cumulative work counters of a surrogate: full
// hyperparameter selections (grid + ARD refinement, O(n³) each), cheap
// incremental appends (O(n²) factor extensions), and budget compactions
// (evictions or rejections the GP performed to stay within its point cap —
// zero while the stream fits it). A healthy steady state appends far more
// than it fits.
type SurrogateStats struct {
	Fits        int
	Appends     int
	Compactions int
}

// Surrogate is the response-surface model behind the Bayesian-optimization
// tuners: the seam that lets the GP (Sparse) and non-GP models (the
// Random-Forest ablation) slot into the same suggest/observe loop.
//
// SetData is the one training entry point. It reconciles with the full
// (features, targets) matrix each round: implementations absorb only the
// new tail when the leading rows are unchanged and rebuild when a caller
// rewrote history under them (guide-feature maturation, warm-start prior
// swaps) — so the incremental path is never wrong, only sometimes slower.
// Rows passed in are copied when retained; callers may reuse their buffers.
//
// Prediction is allocation-free through a caller-owned Scratch; a Surrogate
// must support concurrent PredictInto/PredictBatch calls with distinct
// scratches. LogMarginalLikelihood reports the model-selection objective
// (NaN for models without a likelihood). Stats exposes the cumulative work
// counters for metrics and tests.
type Surrogate interface {
	SetData(xs [][]float64, ys []float64) error
	PredictInto(x []float64, s *Scratch) (mean, variance float64)
	PredictBatch(xs [][]float64, means, vars []float64, s *Scratch)
	LogMarginalLikelihood() float64
	Stats() SurrogateStats
}

var _ Surrogate = (*Sparse)(nil)
