package core

import (
	"errors"

	"relm/internal/conf"
	"relm/internal/profile"
	"relm/internal/tune"
)

// Incremental is the steppable form of the RelM workflow behind the unified
// tune.Tuner interface. Its suggest/observe cycle walks the §4 pipeline one
// experiment at a time:
//
//  1. profile the default configuration;
//  2. when that profile has no full-GC events, re-profile with the
//     GC-pressure heuristics (§4.1);
//  3. recommend analytically and suggest the recommendation once as a
//     verification run.
//
// Unlike the black-box adapters, observations must carry profile
// statistics (a simulator Profile or a remote client's pre-derived Stats) —
// RelM is white-box, its models consume Table 6 statistics, not runtimes.
type Incremental struct {
	tuner *Tuner
	sp    tune.Space

	phase     int // 0 = default profile, 1 = re-profile, 2 = verify, 3 = done
	st        profile.Stats
	haveStats bool
	rec       conf.Config
	cands     []Candidate
	recErr    error
	haveRec   bool

	best  tune.Sample
	found bool
}

var _ tune.Tuner = (*Incremental)(nil)

// Incremental returns a steppable adapter for this tuner over a
// configuration space.
func (t *Tuner) Incremental(sp tune.Space) *Incremental {
	return &Incremental{tuner: t, sp: sp}
}

// Suggest returns the next configuration to profile; after the
// recommendation is computed it is suggested once for verification.
func (inc *Incremental) Suggest() conf.Config {
	switch inc.phase {
	case 0:
		return inc.sp.Default()
	case 1:
		return reprofileConfig(inc.sp.Default(), inc.sp)
	case 2:
		return inc.rec
	}
	if inc.found {
		return inc.best.Config
	}
	return inc.sp.Default()
}

// Observe incorporates one profiled run and advances the pipeline.
func (inc *Incremental) Observe(s tune.Sample) {
	if s.Objective <= 0 {
		s.Objective = s.RuntimeSec
	}
	if !s.Result.Aborted && s.RuntimeSec > 0 && (!inc.found || s.Objective < inc.best.Objective) {
		inc.best, inc.found = s, true
	}

	switch inc.phase {
	case 0:
		st, ok := s.DeriveStats()
		if !ok {
			inc.recErr = errors.New("relm: observation carries no profile statistics (RelM needs a Profile or Stats)")
			inc.phase = 3
			return
		}
		inc.st, inc.haveStats = st, true
		if st.HadFullGC {
			inc.recommend()
		} else {
			inc.phase = 1
		}
	case 1:
		if st2, ok := s.DeriveStats(); ok && st2.HadFullGC {
			inc.st = st2
		}
		inc.recommend()
	case 2:
		inc.phase = 3
	}
}

// recommend runs the analytic pipeline on the retained statistics.
func (inc *Incremental) recommend() {
	if !inc.haveStats {
		inc.recErr = errors.New("relm: no profile statistics retained")
		inc.phase = 3
		return
	}
	inc.rec, inc.cands, inc.recErr = inc.tuner.Recommend(inc.st)
	inc.haveRec = true
	if inc.recErr != nil {
		inc.phase = 3
		return
	}
	inc.phase = 2
}

// Best returns the best profiled run. Note RelM's recommendation itself is
// available through Recommendation; Best reflects what was measured.
func (inc *Incremental) Best() (tune.Sample, bool) { return inc.best, inc.found }

// Done reports whether the pipeline has completed (or failed).
func (inc *Incremental) Done() bool { return inc.phase >= 3 }

// HasRecommendation reports whether the analytic recommendation has been
// computed (it is, before the verification run is suggested).
func (inc *Incremental) HasRecommendation() bool { return inc.haveRec }

// Recommendation returns the analytic result: the recommended
// configuration and every ranked candidate, or the pipeline error.
func (inc *Incremental) Recommendation() (conf.Config, []Candidate, error) {
	if !inc.haveRec && inc.recErr == nil {
		return conf.Config{}, nil, errors.New("relm: recommendation not computed yet (profile runs outstanding)")
	}
	return inc.rec, inc.cands, inc.recErr
}

// Err surfaces a pipeline failure (infeasible cluster, missing statistics).
func (inc *Incremental) Err() error { return inc.recErr }
