package bo

import (
	"time"

	"relm/internal/conf"
	"relm/internal/gp"
	"relm/internal/simrand"
	"relm/internal/tune"
)

// Tuner is Bayesian Optimization behind the unified tune.Tuner interface.
// The caller drives the suggest/observe cycle (tune.Drive offline), so
// observations may come from the simulator, from a remote client reporting
// real measurements, or from a replayed history. The next suggestion and
// the stopping decision are computed eagerly after each observation, so
// the same observations always yield the same fits, acquisitions and
// suggestions.
type Tuner struct {
	sp    tune.Space
	opts  Options
	extra Extra
	pen   Penalty
	rng   *simrand.Rand
	sur   gp.Surrogate // the response-surface model (gp.Scheduled, or the override)

	queue []conf.Config // bootstrap configurations not yet suggested
	prior []PriorPoint  // transferred observations; only WarmStart sets it

	seen  map[conf.Config]bool
	rawXs [][]float64
	cfgs  []conf.Config
	ys    []float64

	best  tune.Sample
	found bool

	// Reusable per-session buffers: the feature matrix rebuilt each round
	// and the acquisition scratch. Sessions own their Tuner exclusively, so
	// concurrent sessions never contend on these.
	featRows [][]float64
	featYs   []float64
	featFlat []float64
	featOffs []int
	acq      acqScratch

	newSamples      int
	pending         *conf.Config
	pendingAdaptive bool
	done            bool
}

var _ tune.Tuner = (*Tuner)(nil)

// acquired, when set, sees every acquisition's tuner, point and expected
// improvement. Only tests set it, never while tuners run.
var acquired func(t *Tuner, x []float64, ei float64)

// NewTuner builds an incremental Bayesian optimizer over a configuration
// space. extra and penalty may be nil (vanilla BO); package gbo supplies
// them to obtain guided BO.
func NewTuner(sp tune.Space, opts Options, extra Extra, penalty Penalty) *Tuner {
	opts.fill()
	t := &Tuner{
		sp:    sp,
		opts:  opts,
		extra: extra,
		pen:   penalty,
		rng:   simrand.New(opts.Seed ^ 0x9e3779b97f4a7c15),
		seen:  map[conf.Config]bool{},
	}

	if opts.UsePaperLHS {
		t.queue = append(t.queue, tune.PaperLHS(sp)...)
	} else {
		for _, x := range tune.LatinHypercube(t.rng, bootstrapSamples, sp.Dim()) {
			t.queue = append(t.queue, sp.Decode(x))
		}
	}

	t.sur = opts.Surrogate
	if t.sur == nil {
		// Default surrogate: a hyperparameter-tuned GP (grid + ARD gradient
		// ascent) absorbing new observations through O(n²) appends, with
		// re-selection throttled to gp.Scheduled's schedule.
		t.sur = &gp.Scheduled{
			BaseDims:   sp.Dim(),
			AppendHist: opts.SurrogateAppendHist,
			RefitHist:  opts.SurrogateRefitHist,
		}
	}

	t.advance()
	return t
}

// WarmStart seeds the optimizer with prior observations transferred from a
// matched repository entry (§6.6 model re-use) — the one way a prior gets
// in, offline (RunWithReuse) and served alike. Prior points join every
// surrogate fit but cost no experiments, never become the incumbent, and
// mark their configurations as seen so the acquisition proposes genuinely
// new points. The trusted prior replaces the bootstrap: the next suggestion
// becomes a single confirmation run of the prior's best configuration, the
// rest of the bootstrap queue is dropped, and the adaptive phase only has
// to confirm and locally refine the transferred optimum (at most 6 new
// iterations, stopping rule armed after 3). Call it before the first
// observation.
func (t *Tuner) WarmStart(points []PriorPoint) {
	if len(points) == 0 {
		return
	}
	t.prior = append([]PriorPoint(nil), points...)
	best := points[0]
	for _, p := range points {
		t.seen[p.Cfg] = true
		if p.Y < best.Y {
			best = p
		}
	}
	t.queue = nil
	if !t.done {
		cfg := best.Cfg
		t.pending, t.pendingAdaptive = &cfg, false
	}
	if t.opts.MaxIterations > 6 {
		t.opts.MaxIterations = 6
	}
	if t.opts.MinNewSamples > 3 {
		t.opts.MinNewSamples = 3
	}
}

// buildFeatures assembles the surrogate's (features, targets) matrix —
// prior observations first, then measured samples — into buffers reused
// across rounds. Without an Extra hook the normalized knob vectors are
// their own feature rows; with one, combined rows are packed into a flat
// buffer and row views are built only after it stops growing.
func (t *Tuner) buildFeatures() ([][]float64, []float64) {
	rows := t.featRows[:0]
	ys := t.featYs[:0]
	if t.extra == nil {
		for _, p := range t.prior {
			rows = append(rows, p.X)
			ys = append(ys, p.Y)
		}
		rows = append(rows, t.rawXs...)
		ys = append(ys, t.ys...)
	} else {
		flat := t.featFlat[:0]
		offs := t.featOffs[:0]
		add := func(x []float64, cfg conf.Config, y float64) {
			offs = append(offs, len(flat))
			flat = append(flat, x...)
			flat = append(flat, t.extra(x, cfg)...)
			ys = append(ys, y)
		}
		for _, p := range t.prior {
			add(p.X, p.Cfg, p.Y)
		}
		for i := range t.rawXs {
			add(t.rawXs[i], t.cfgs[i], t.ys[i])
		}
		offs = append(offs, len(flat))
		for i := 0; i+1 < len(offs); i++ {
			rows = append(rows, flat[offs[i]:offs[i+1]])
		}
		t.featFlat, t.featOffs = flat, offs
	}
	t.featRows, t.featYs = rows, ys
	return rows, ys
}

// SurrogateInfo reports the surrogate's cumulative work counters — the
// observability hook for tests and service metrics.
func (t *Tuner) SurrogateInfo() gp.SurrogateStats { return t.sur.Stats() }

// advance computes the next suggestion or fires the stopping rule. It is
// called from the constructor and after every observation, one round of
// the search: bound the adaptive samples, fit the surrogate, maximize the
// acquisition, and apply the CherryPick rule.
func (t *Tuner) advance() {
	if t.done || t.pending != nil {
		return
	}
	if len(t.queue) > 0 {
		cfg := t.queue[0]
		t.queue = t.queue[1:]
		t.pending, t.pendingAdaptive = &cfg, false
		return
	}
	if t.newSamples >= t.opts.MaxIterations {
		t.done = true
		return
	}

	// Feature vectors are rebuilt each round so an Extra that matured
	// after the first profile applies to the bootstrap samples too. The
	// surrogate reconciles: it appends only the new tail when the prefix
	// is unchanged and refits when features shifted under it.
	feats, fitYs := t.buildFeatures()
	if err := t.sur.SetData(feats, fitYs); err != nil {
		t.done = true
		return
	}

	// The incumbent for the EI criterion includes (rescaled) prior
	// observations: with a trusted warm start, marginal improvements over
	// what the prior already located are not worth new experiments.
	tau := bestObjective(t.ys)
	for _, p := range t.prior {
		if p.Y < tau {
			tau = p.Y
		}
	}
	var acqStart time.Time
	if t.opts.AcquisitionHist != nil {
		acqStart = time.Now()
	}
	x, ei := t.maximizeEI(t.sur, tau)
	if !acqStart.IsZero() {
		t.opts.AcquisitionHist.Record(time.Since(acqStart))
	}
	if acquired != nil {
		acquired(t, x, ei)
	}
	if x == nil {
		t.done = true
		return
	}
	// Stopping rule: enough new samples and the expected improvement is
	// marginal relative to the incumbent.
	if t.newSamples >= t.opts.MinNewSamples && ei < t.opts.EIFraction*tau {
		t.done = true
		return
	}
	cfg := t.sp.Decode(x)
	t.pending, t.pendingAdaptive = &cfg, true
}

// Suggest returns the next configuration to measure (stable until the next
// Observe). After Done it returns the best known configuration.
func (t *Tuner) Suggest() conf.Config {
	if t.pending != nil {
		return *t.pending
	}
	if t.found {
		return t.best.Config
	}
	return t.sp.Default()
}

// Observe incorporates one measured sample and eagerly prepares the next
// suggestion. Samples with no normalized coordinates or objective (remote
// observations) are completed from Config and RuntimeSec. An unsolicited
// observation — one that doesn't match the outstanding suggestion — joins
// the surrogate's data but leaves the suggestion pending, so bootstrap
// design points are never silently dropped.
func (t *Tuner) Observe(s tune.Sample) {
	if s.X == nil {
		s.X = t.sp.Encode(s.Config)
	}
	if s.Objective <= 0 {
		s.Objective = s.RuntimeSec
	}
	wasAdaptive := false
	if t.pending != nil && s.Config == *t.pending {
		wasAdaptive = t.pendingAdaptive
		t.pending, t.pendingAdaptive = nil, false
	}

	t.seen[s.Config] = true
	t.rawXs = append(t.rawXs, s.X)
	t.cfgs = append(t.cfgs, s.Config)
	t.ys = append(t.ys, s.Objective)
	if !s.Result.Aborted && (!t.found || s.Objective < t.best.Objective) {
		t.best, t.found = s, true
	}
	if wasAdaptive {
		t.newSamples++
	}
	t.advance()
}

// Best returns the incumbent non-aborted sample.
func (t *Tuner) Best() (tune.Sample, bool) { return t.best, t.found }

// Done reports whether the stopping rule has fired.
func (t *Tuner) Done() bool { return t.done }
