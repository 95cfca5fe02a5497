package rf

import "relm/internal/gp"

// Surrogate adapts the Random Forest onto the gp.Surrogate interface, so the
// Figure 26 ablation plugs into the Bayesian-optimization tuners through the
// same seam as the Gaussian-Process models. Forests have no incremental
// conditioning path, so every data change retrains the ensemble from the
// full matrix; Stats therefore counts one Fit per change, the honest cost of
// this surrogate.
type Surrogate struct {
	// Opts configures ensemble training (zero value = package defaults).
	Opts Options

	forest *Forest
	stats  gp.SurrogateStats
}

var _ gp.Surrogate = (*Surrogate)(nil)

// SetData retrains on the given matrix. The trees keep thresholds and leaf
// means, not rows, so callers may reuse their buffers.
func (s *Surrogate) SetData(xs [][]float64, ys []float64) error {
	if len(xs) == 0 {
		s.forest = nil
		return nil
	}
	s.forest = Train(xs, ys, s.Opts)
	s.stats.Fits++
	return nil
}

// PredictInto returns the ensemble mean and spread; the scratch is unused
// (tree walks allocate nothing). An untrained surrogate predicts the prior
// (0, 1).
func (s *Surrogate) PredictInto(x []float64, _ *gp.Scratch) (mean, variance float64) {
	if s.forest == nil {
		return 0, 1
	}
	return s.forest.Predict(x)
}

// PredictBatch scores a batch of candidates.
func (s *Surrogate) PredictBatch(xs [][]float64, means, vars []float64, _ *gp.Scratch) {
	for i, x := range xs {
		means[i], vars[i] = s.PredictInto(x, nil)
	}
}

// Stats reports the cumulative work counters.
func (s *Surrogate) Stats() gp.SurrogateStats { return s.stats }
