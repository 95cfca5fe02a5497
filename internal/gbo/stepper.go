package gbo

import (
	"relm/internal/bo"
	"relm/internal/conf"
	"relm/internal/gp"
	"relm/internal/sim/cluster"
	"relm/internal/tune"
)

// Tuner is the incremental form of Guided Bayesian Optimization: a bo.Tuner
// whose Extra/Penalty hooks consult the white-box model Q. Q is built
// lazily from the first observed sample that carries profile statistics
// (§5.2: the profiled statistics may come from a prior execution with any
// configuration), so remote sessions that report plain runtimes degrade
// gracefully to vanilla BO until a profile arrives.
type Tuner struct {
	inner *bo.Tuner
	cl    cluster.Spec
	model *Model
	feat  [3]float64 // the Extra hook's result, copied by the caller at once

	// The last Q computed: a probe's features and penalty read the same one.
	qModel *Model
	qCfg   conf.Config
	q      [3]float64
}

var _ tune.Tuner = (*Tuner)(nil)

// NewTuner builds an incremental guided Bayesian optimizer.
func NewTuner(cl cluster.Spec, sp tune.Space, opts bo.Options) *Tuner {
	t := &Tuner{cl: cl}
	extra := func(_ []float64, cfg conf.Config) []float64 {
		t.feat = [3]float64{}
		if t.model != nil {
			t.feat = featuresOf(t.metrics(cfg))
		}
		return t.feat[:]
	}
	penalty := func(_ []float64, cfg conf.Config) float64 {
		if t.model != nil {
			return penaltyOf(t.metrics(cfg))
		}
		return 1
	}
	t.inner = bo.NewTuner(sp, opts, extra, penalty)
	return t
}

// metrics is t.model.Metrics(cfg), memoized for one configuration.
func (t *Tuner) metrics(cfg conf.Config) [3]float64 {
	if t.qModel != t.model || t.qCfg != cfg {
		t.qModel, t.qCfg, t.q = t.model, cfg, t.model.Metrics(cfg)
	}
	return t.q
}

// Suggest returns the next configuration to measure.
func (t *Tuner) Suggest() conf.Config { return t.inner.Suggest() }

// Observe incorporates one sample, building the guide model Q from the
// first sample with derivable statistics.
func (t *Tuner) Observe(s tune.Sample) {
	if t.model == nil {
		if st, ok := s.DeriveStats(); ok {
			t.model = NewModel(t.cl, st)
		}
	}
	t.inner.Observe(s)
}

// WarmStart seeds the inner optimizer with prior observations transferred
// from a matched repository entry (§6.6 model re-use).
func (t *Tuner) WarmStart(points []bo.PriorPoint) { t.inner.WarmStart(points) }

// Best returns the incumbent non-aborted sample.
func (t *Tuner) Best() (tune.Sample, bool) { return t.inner.Best() }

// Done reports whether the stopping rule has fired.
func (t *Tuner) Done() bool { return t.inner.Done() }

// Model returns the guide model Q, or nil before any profiled observation.
func (t *Tuner) Model() *Model { return t.model }

// SurrogateInfo reports the inner surrogate's cumulative work counters.
// Guided BO exercises the reconciling path: when Q matures it rewrites
// every feature row, which the surrogate answers with one full
// re-selection.
func (t *Tuner) SurrogateInfo() gp.SurrogateStats { return t.inner.SurrogateInfo() }
