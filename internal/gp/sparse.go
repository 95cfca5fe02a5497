package gp

import (
	"math"
	"time"

	"relm/internal/linalg"
	"relm/internal/obs"
)

// DefaultSparseBudget is the default active-set cap of the Sparse
// surrogate: large enough that short sessions never compress (and are
// therefore the exact GP over every observation), small enough that a
// 10k-observation session appends and predicts at the cost of a 256-point
// model.
const DefaultSparseBudget = 256

// Sparse is the GP Surrogate: a hyperparameter-tuned GP whose active set is
// capped at Budget points, so appends cost O(m²) and predictions cost the
// same zero-alloc O(m) as an m-point exact model no matter how many
// observations the session has streamed in.
//
// New observations are absorbed through O(n²) GP.Append and the O(n³)
// hyperparameter selection (the coarse grid of FitBestGrouped refined by ARD
// gradient ascent, FitBestARD) is throttled to a schedule: every RefitEvery
// absorbed observations, or earlier when the per-point log marginal
// likelihood drifts down by more than LMLDrift — the signal that the length
// scales selected a few observations ago no longer explain the data.
//
// Compression is greedy and factor-driven. While the stream fits the budget
// every point is admitted and the model is the exact GP over all of it:
// each scheduled re-selection equals batch FitBestARD on the same rows. At
// budget, each arriving point is scored by its conditional variance given
// the active set (the pivot a bordered Cholesky append would produce) and
// compared against the smallest diagonal pivot in the cached factor, the
// greedy proxy for the most redundant active point. The candidate either
// replaces that point (row/column deletion plus bordered append, O(m²), no
// refactorization) or is rejected as the most redundant of the m+1. The
// active point holding the incumbent-best (minimum) target is never
// evicted: the EI incumbent must keep its support. Every absorbed
// observation — admitted or not — is recorded in a full-stream copy so
// SetData can reconcile against callers that rewrite history
// (guide-feature maturation, warm-start prior swaps), which triggers a
// rebuild: re-seed hyperparameters on the first Budget points, restream the
// remainder through the compressor, re-select on the compressed active set.
type Sparse struct {
	// Kind selects the kernel family ("rbf" or "matern52").
	Kind string
	// BaseDims is the grouped-length-scale split passed to the grid stage.
	BaseDims int
	// Budget caps the active set (default DefaultSparseBudget).
	Budget int
	// RefitEvery re-selects hyperparameters after this many absorbed
	// observations (default 8; 1 re-selects on every observation).
	RefitEvery int
	// LMLDrift re-selects early when the per-point log marginal likelihood
	// of the active set drops this much since the last selection
	// (default 0.25; ≤0 disables).
	LMLDrift float64
	// ARDIters bounds the ARD gradient ascent per re-selection (0 =
	// DefaultARDIters; negative disables ARD).
	ARDIters int
	// AppendHist/RefitHist, when set, record absorb vs. re-selection
	// latency, so a slow observe can be attributed to the right half of
	// the surrogate.
	AppendHist *obs.Histogram
	RefitHist  *obs.Histogram

	gp      *GP
	appends int
	selLML  float64

	// Full absorbed stream (row copies), for SetData reconciliation.
	allXs [][]float64
	allYs []float64

	kbuf []float64 // candidate kernel column
	vbuf []float64 // triangular-solve scratch

	stats SurrogateStats
}

func (s *Sparse) fill() {
	if s.Budget <= 0 {
		s.Budget = DefaultSparseBudget
	}
	if s.RefitEvery == 0 {
		s.RefitEvery = 8
	}
	if s.LMLDrift == 0 {
		s.LMLDrift = 0.25
	}
}

// SetData reconciles the model with the full observation matrix: unchanged
// prefix means only the new tail streams through the compressor; a rewritten
// prefix rebuilds from scratch. Rows are copied when retained.
func (s *Sparse) SetData(xs [][]float64, ys []float64) error {
	s.fill()
	if s.gp == nil || !s.prefixUnchanged(xs, ys) {
		return s.rebuild(xs, ys)
	}
	tail := len(xs) - len(s.allXs)
	// When the tail lands on the schedule and still fits the budget, the
	// active set is the whole stream: re-select on it directly instead of
	// appending work the refit discards (RefitEvery=1 therefore never
	// appends).
	if s.appends+tail >= s.RefitEvery && len(xs) <= s.Budget {
		for i := len(s.allXs); i < len(xs); i++ {
			s.record(xs[i], ys[i])
		}
		return s.reselect(s.allXs, s.allYs)
	}
	var appendStart time.Time
	if s.AppendHist != nil && tail > 0 {
		appendStart = time.Now()
	}
	for i := len(s.allXs); i < len(xs); i++ {
		s.record(xs[i], ys[i])
		if err := s.absorbOne(s.allXs[i], s.allYs[i]); err != nil {
			return s.refitActive()
		}
		s.appends++
		s.stats.Appends++
	}
	if !appendStart.IsZero() {
		s.AppendHist.Record(time.Since(appendStart))
	}
	return s.maybeRefit()
}

// maybeRefit applies the re-selection schedule after an absorb: refit when
// the append budget is spent or the per-point likelihood of the active set
// has drifted below the level at the last selection.
func (s *Sparse) maybeRefit() error {
	if s.appends >= s.RefitEvery {
		return s.refitActive()
	}
	g := s.gp
	if s.LMLDrift > 0 && g.N() > 0 {
		if s.selLML-g.LogMarginalLikelihood()/float64(g.N()) > s.LMLDrift {
			return s.refitActive()
		}
	}
	return nil
}

// absorbOne admits one observation into the active set. Under budget it is
// a plain bordered append. At budget it is an evict-or-reject decision: the
// candidate's conditional variance against the active set (the pivot an
// append would produce) is compared with the smallest squared diagonal
// pivot of the cached factor — the greedy redundancy proxy — and the less
// informative of the two stays out. The incumbent-best (minimum-target)
// point is exempt from eviction.
func (s *Sparse) absorbOne(x []float64, y float64) error {
	g := s.gp
	if g.N() < s.Budget {
		return g.Append(x, y)
	}
	n := g.N()
	s.kbuf = growVec(s.kbuf, n)
	s.vbuf = growVec(s.vbuf, n)
	for i, xi := range g.xs {
		s.kbuf[i] = g.eval.Eval(x, xi)
	}
	d := g.eval.Eval(x, x) + g.Noise
	v := linalg.SolveLowerInto(g.chol, s.kbuf, s.vbuf)
	cond := d - linalg.Dot(v, v)

	protect := 0
	for j := 1; j < n; j++ {
		if g.ys[j] < g.ys[protect] {
			protect = j
		}
	}
	evict, minPiv := -1, math.Inf(1)
	for j := 0; j < n; j++ {
		if j == protect {
			continue
		}
		p := g.chol.At(j, j)
		if p*p < minPiv {
			minPiv, evict = p*p, j
		}
	}
	s.stats.Compactions++
	if evict < 0 || cond <= minPiv {
		// The candidate is the most redundant of the m+1 points; the
		// active set already explains it.
		return nil
	}
	g.deleteAt(evict)
	return g.Append(x, y)
}

// PredictInto evaluates the posterior at x through caller-owned scratch,
// allocation-free and at active-set (not stream) cost. An unfitted model
// predicts the prior (0, 1).
func (s *Sparse) PredictInto(x []float64, sc *Scratch) (mean, variance float64) {
	if s.gp == nil {
		return 0, 1
	}
	return s.gp.PredictInto(x, sc)
}

// PredictBatch scores a batch of candidates through one scratch.
func (s *Sparse) PredictBatch(xs [][]float64, means, vars []float64, sc *Scratch) {
	if s.gp == nil {
		for i := range xs {
			means[i], vars[i] = 0, 1
		}
		return
	}
	s.gp.PredictBatch(xs, means, vars, sc)
}

// LogMarginalLikelihood reports the active set's selection objective
// (-Inf before the first fit).
func (s *Sparse) LogMarginalLikelihood() float64 {
	if s.gp == nil {
		return math.Inf(-1)
	}
	return s.gp.LogMarginalLikelihood()
}

// Model returns the current GP over the active set (nil before the first
// successful SetData).
func (s *Sparse) Model() *GP { return s.gp }

// N returns the number of observations absorbed (the stream length, not the
// active-set size — Model().N() reports the latter).
func (s *Sparse) N() int { return len(s.allXs) }

// Stats reports the cumulative work counters; Compactions counts
// evict-or-reject decisions made at budget.
func (s *Sparse) Stats() SurrogateStats { return s.stats }

func (s *Sparse) record(x []float64, y float64) {
	s.allXs = append(s.allXs, append([]float64(nil), x...))
	s.allYs = append(s.allYs, y)
}

// prefixUnchanged reports whether the absorbed stream is exactly the
// leading rows of (xs, ys). Exact float equality is the right test:
// unchanged feature pipelines reproduce identical bits, and any retroactive
// change — however small — invalidates the cached factor.
func (s *Sparse) prefixUnchanged(xs [][]float64, ys []float64) bool {
	if len(xs) < len(s.allXs) || len(ys) != len(xs) {
		return false
	}
	for i, have := range s.allXs {
		if s.allYs[i] != ys[i] {
			return false
		}
		row := xs[i]
		if len(row) != len(have) {
			return false
		}
		for d := range have {
			if have[d] != row[d] {
				return false
			}
		}
	}
	return true
}

// rebuild re-derives the whole model from a fresh stream: hyperparameters
// seeded on the first Budget observations, the remainder streamed through
// the compressor, then one re-selection over the compressed active set so
// the length scales reflect the points that actually survived.
func (s *Sparse) rebuild(xs [][]float64, ys []float64) error {
	s.allXs = s.allXs[:0]
	s.allYs = s.allYs[:0]
	for i := range xs {
		s.record(xs[i], ys[i])
	}
	seed := len(xs)
	if seed > s.Budget {
		seed = s.Budget
	}
	if err := s.reselect(s.allXs[:seed], s.allYs[:seed]); err != nil || seed == len(xs) {
		return err
	}
	for i := seed; i < len(xs); i++ {
		if err := s.absorbOne(s.allXs[i], s.allYs[i]); err != nil {
			break
		}
	}
	return s.refitActive()
}

// refitActive re-selects hyperparameters over the current active set.
func (s *Sparse) refitActive() error { return s.reselect(s.gp.xs, s.gp.ys) }

// reselect replaces the model with the best grid + ARD fit of (xs, ys) and
// resets the schedule.
func (s *Sparse) reselect(xs [][]float64, ys []float64) error {
	var start time.Time
	if s.RefitHist != nil {
		start = time.Now()
	}
	g, err := FitBestARD(s.Kind, xs, ys, s.BaseDims, s.ARDIters)
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
