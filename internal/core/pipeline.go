package core

import (
	"relm/internal/conf"
	"relm/internal/tune"
	"relm/internal/units"
)

// TuneWorkload runs the complete RelM workflow against an evaluator:
// profile the application once on the default configuration, regenerate the
// profile with the §4.1 heuristics when it contains no full-GC events
// (decrease heap size, increase task concurrency, increase NewRatio — all
// of which raise GC pressure), then recommend analytically. RelM's entire
// stress-testing overhead is the one or two profiling runs: it stops at the
// recommendation, before the verification run tune.Drive would take.
func (t *Tuner) TuneWorkload(ev *tune.Evaluator) (conf.Config, []Candidate, error) {
	inc := t.Incremental(ev.Space)
	for !inc.Done() && !inc.HasRecommendation() {
		inc.Observe(ev.Eval(inc.Suggest()))
	}
	return inc.Recommendation()
}

// reprofileConfig applies the full-GC-inducing heuristics: halve the heap
// (two containers per node), double the task concurrency, and raise
// NewRatio.
func reprofileConfig(def conf.Config, sp tune.Space) conf.Config {
	re := def
	if re.ContainersPerNode < 2 {
		re.ContainersPerNode = 2
	}
	maxP := sp.MaxConcurrency(re.ContainersPerNode)
	re.TaskConcurrency = units.ClampInt(re.TaskConcurrency*2, 1, maxP)
	re.NewRatio = units.ClampInt(re.NewRatio+2, 1, sp.MaxNewRatio)
	return re
}
