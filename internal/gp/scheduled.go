package gp

import (
	"slices"
	"time"

	"relm/internal/obs"
)

// Scheduled is the GP Surrogate: the exact GP over every observation it is
// given, with its hyperparameters re-selected on a schedule.
//
// New observations are absorbed through O(n²) GP.Append, and the O(n³)
// hyperparameter selection (the coarse grid of FitBestGrouped refined by ARD
// gradient ascent, FitBestARD) is throttled to a schedule: every 8 absorbed
// observations, or earlier when the per-point log marginal likelihood
// drifts down by more than 0.25 — the signal that the length scales
// selected a few observations ago no longer explain the data. Each
// scheduled re-selection equals batch FitBestARD on the same rows.
//
// The model's own rows are the record of what it absorbed: SetData compares
// the caller's matrix against them, appends only a new tail, and re-selects
// over every row when a caller rewrote history under it (guide-feature
// maturation, warm-start prior swaps). Nothing is ever dropped; the service
// bounds a session's history, so a model holds at most its priors and that
// history.
type Scheduled struct {
	// BaseDims is the grouped-length-scale split passed to the grid stage.
	BaseDims int
	// AppendHist/RefitHist, when set, record absorb vs. re-selection
	// latency, so a slow observe can be attributed to the right half of
	// the surrogate.
	AppendHist *obs.Histogram
	RefitHist  *obs.Histogram

	// refitEvery re-selects hyperparameters after this many absorbed
	// observations (default 8); lmlDrift re-selects early when the
	// per-point log marginal likelihood drops this much since the last
	// selection (default 0.25; negative disables). Only tests set them.
	refitEvery int
	lmlDrift   float64

	gp      *GP
	appends int
	selLML  float64

	stats SurrogateStats
}

func (s *Scheduled) fill() {
	if s.refitEvery == 0 {
		s.refitEvery = 8
	}
	if s.lmlDrift == 0 {
		s.lmlDrift = 0.25
	}
}

// SetData reconciles the model with the full observation matrix: an
// unchanged prefix means only the new tail is appended; a rewritten prefix
// re-selects over every row. Rows are copied when retained.
func (s *Scheduled) SetData(xs [][]float64, ys []float64) error {
	s.fill()
	if s.gp == nil || !s.prefixUnchanged(xs, ys) {
		return s.reselect(xs, ys)
	}
	n := s.gp.N()
	// When the tail lands on the schedule, re-select on every row directly
	// instead of appending work the refit discards.
	if s.appends+len(xs)-n >= s.refitEvery {
		return s.reselect(xs, ys)
	}
	var appendStart time.Time
	if s.AppendHist != nil && len(xs) > n {
		appendStart = time.Now()
	}
	for i := n; i < len(xs); i++ {
		if err := s.gp.Append(xs[i], ys[i]); err != nil {
			return s.reselect(xs, ys)
		}
		s.appends++
		s.stats.Appends++
	}
	if !appendStart.IsZero() {
		s.AppendHist.Record(time.Since(appendStart))
	}
	return s.maybeRefit()
}

// maybeRefit applies the re-selection schedule after an append: refit when
// refitEvery appends have accrued or the per-point likelihood has drifted
// below the level at the last selection.
func (s *Scheduled) maybeRefit() error {
	g := s.gp
	if s.appends >= s.refitEvery ||
		s.lmlDrift > 0 && s.selLML-g.LogMarginalLikelihood()/float64(g.N()) > s.lmlDrift {
		return s.reselect(g.xs, g.ys)
	}
	return nil
}

// PredictInto evaluates the posterior at x through caller-owned scratch,
// allocation-free. An unfitted model predicts the prior (0, 1).
func (s *Scheduled) PredictInto(x []float64, sc *Scratch) (mean, variance float64) {
	if s.gp == nil {
		return 0, 1
	}
	return s.gp.PredictInto(x, sc)
}

// PredictBatch scores a batch of candidates through one scratch.
func (s *Scheduled) PredictBatch(xs [][]float64, means, vars []float64, sc *Scratch) {
	if s.gp == nil {
		for i := range xs {
			means[i], vars[i] = 0, 1
		}
		return
	}
	s.gp.PredictBatch(xs, means, vars, sc)
}

// Stats reports the cumulative work counters.
func (s *Scheduled) Stats() SurrogateStats { return s.stats }

// prefixUnchanged reports whether the model's rows are exactly the leading
// rows of (xs, ys). Exact float equality is the right test: unchanged
// feature pipelines reproduce identical bits, and any retroactive change —
// however small — invalidates the cached factor.
func (s *Scheduled) prefixUnchanged(xs [][]float64, ys []float64) bool {
	g := s.gp
	if len(xs) < len(g.xs) || len(ys) != len(xs) {
		return false
	}
	for i, have := range g.xs {
		if g.ys[i] != ys[i] || !slices.Equal(have, xs[i]) {
			return false
		}
	}
	return true
}

// reselect replaces the model with the best grid + ARD fit of (xs, ys) and
// resets the schedule.
func (s *Scheduled) reselect(xs [][]float64, ys []float64) error {
	var start time.Time
	if s.RefitHist != nil {
		start = time.Now()
	}
	g, err := FitBestARD(xs, ys, s.BaseDims)
	if !start.IsZero() {
		s.RefitHist.Record(time.Since(start))
	}
	if err != nil {
		return err
	}
	s.gp = g
	s.appends = 0
	s.stats.Fits++
	s.selLML = g.LogMarginalLikelihood() / float64(g.N())
	return nil
}
