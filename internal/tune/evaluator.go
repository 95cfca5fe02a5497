package tune

import (
	"sync"

	"relm/internal/conf"
	"relm/internal/profile"
	"relm/internal/sim"
	"relm/internal/sim/cluster"
	"relm/internal/sim/workload"
)

// Sample is one observed (configuration, performance) pair.
type Sample struct {
	Config conf.Config
	X      []float64 // normalized coordinates
	// RuntimeSec is the observed wall-clock duration.
	RuntimeSec float64
	// Objective is the tuning objective: the runtime, or the abort penalty
	// (twice the worst runtime observed so far) for failed runs.
	Objective float64
	Result    sim.Result
	Profile   *profile.Profile
	// Stats optionally carries pre-derived Table 6 statistics for
	// observations that have no simulator profile — e.g. a remote client
	// reporting a real run to the tuning service. When both are present,
	// Stats wins.
	Stats *profile.Stats
}

// DeriveStats returns the Table 6 statistics attached to or derivable from
// the sample: the explicit Stats field if set, otherwise statistics
// generated from the profile. ok is false when the sample carries neither.
func (s Sample) DeriveStats() (profile.Stats, bool) {
	if s.Stats != nil {
		return *s.Stats, true
	}
	if s.Profile != nil {
		return profile.Generate(s.Profile), true
	}
	return profile.Stats{}, false
}

// Objectives assigns the paper's tuning objective to observed runs: the
// runtime, or the abort penalty of twice the worst runtime seen so far for
// failed runs (§6.1). The Evaluator and the service's remote sessions share
// this one implementation. Not safe for concurrent use on its own; callers
// hold their own locks.
type Objectives struct {
	worst float64
}

// Assign returns the objective for one observed run, updating the
// worst-runtime watermark.
func (o *Objectives) Assign(runtimeSec float64, aborted bool) float64 {
	if runtimeSec > o.worst {
		o.worst = runtimeSec
	}
	if aborted {
		return 2 * o.worst
	}
	return runtimeSec
}

// Reset clears the watermark.
func (o *Objectives) Reset() { o.worst = 0 }

// Restore sets the watermark to the given worst runtime; the service uses
// it when rebuilding a session's objective state from a persisted history.
func (o *Objectives) Restore(worstRuntimeSec float64) { o.worst = worstRuntimeSec }

// RunSeed is the simulator seed of experiment n of the stress-test sequence
// seeded with seed. The Evaluator's n-th evaluation draws it, and so does
// run n of a served auto session, n being the length of its history.
func RunSeed(seed uint64, n int) uint64 { return seed + uint64(n)*104729 }

// Evaluator runs configurations for the tuning policies and applies the
// paper's objective conventions. It records every evaluation, which is what
// the overhead figures (16, 18, 19) report. It is safe for concurrent use:
// simulation runs proceed in parallel outside the bookkeeping lock.
type Evaluator struct {
	Cluster  cluster.Spec
	Workload workload.Spec
	Space    Space
	Seed     uint64

	mu      sync.Mutex
	started int // evaluations begun (seeds reserved), >= len(history)
	history []Sample
	obj     Objectives
}

// NewEvaluator builds an evaluator with a fresh history.
func NewEvaluator(cl cluster.Spec, wl workload.Spec, seed uint64) *Evaluator {
	return &Evaluator{
		Cluster:  cl,
		Workload: wl,
		Space:    NewSpace(cl, wl),
		Seed:     seed,
	}
}

// Eval runs one configuration (one stress-test experiment) and records it.
// The simulation itself runs outside the lock so concurrent evaluations
// overlap; each reserves a distinct seed offset.
func (e *Evaluator) Eval(c conf.Config) Sample {
	e.mu.Lock()
	idx := e.started
	e.started++
	seed := e.Seed
	e.mu.Unlock()

	res, prof := sim.Run(e.Cluster, e.Workload, c, RunSeed(seed, idx))
	s := Sample{
		Config:     c,
		X:          e.Space.Encode(c),
		RuntimeSec: res.RuntimeSec,
		Result:     res,
		Profile:    prof,
	}

	e.mu.Lock()
	defer e.mu.Unlock()
	s.Objective = e.obj.Assign(res.RuntimeSec, res.Aborted)
	e.history = append(e.history, s)
	return s
}

// Evals returns the number of experiments recorded so far.
func (e *Evaluator) Evals() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.history)
}

// History returns a snapshot of all recorded samples.
func (e *Evaluator) History() []Sample {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]Sample(nil), e.history...)
}

// Best returns the sample with the lowest objective among non-aborted runs;
// ok is false when every run aborted or none were taken.
func (e *Evaluator) Best() (Sample, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	var best Sample
	found := false
	for _, s := range e.history {
		if s.Result.Aborted {
			continue
		}
		if !found || s.Objective < best.Objective {
			best = s
			found = true
		}
	}
	return best, found
}

// TotalRuntime sums the stress-testing time of all experiments — the
// training-overhead measure of Figure 16.
func (e *Evaluator) TotalRuntime() float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	var t float64
	for _, s := range e.history {
		t += s.RuntimeSec
	}
	return t
}

// Resume pre-positions an evaluator whose session is being restored from a
// persisted history: the first n seed offsets are marked consumed — so the
// next Eval draws the same simulator seed it would have drawn had the
// process never restarted — and the abort-penalty watermark is reset to the
// worst runtime of the replayed history.
func (e *Evaluator) Resume(n int, worstRuntimeSec float64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if n > e.started {
		e.started = n
	}
	e.obj.Restore(worstRuntimeSec)
}

// Reset clears the history (used when a policy is re-run from scratch).
func (e *Evaluator) Reset(seed uint64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.history = nil
	e.started = 0
	e.obj.Reset()
	e.Seed = seed
}
