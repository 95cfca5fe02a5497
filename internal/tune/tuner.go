package tune

import "relm/internal/conf"

// Tuner is the unified incremental tuning interface implemented by every
// policy in the repository (RelM, BO, GBO, DDPG). It inverts the control of
// a batch loop: instead of a policy pulling evaluations out of a
// simulator-bound Evaluator, a caller — Drive, the tuning service, or a
// remote client reporting real measurements — drives the suggest/observe
// loop one step at a time:
//
//	for !t.Done() {
//		cfg := t.Suggest()
//		t.Observe(measure(cfg)) // simulator run or real experiment
//	}
//	best, ok := t.Best()
//
// Implementations are not safe for concurrent use; callers that share a
// Tuner across goroutines (e.g. the service session manager) must
// serialize access.
type Tuner interface {
	// Suggest returns the next configuration to measure. It changes
	// nothing: a tuner that is never asked ends in the state of one asked
	// before every observation, so a suggestion need not be recorded to be
	// reproduced. Once Done reports true, Suggest returns the best known
	// configuration.
	Suggest() conf.Config
	// Observe reports the measured outcome of one experiment. It is
	// solicited when the sample's Config equals Suggest(); unsolicited
	// observations (e.g. a client replaying historical runs) are
	// incorporated too.
	Observe(Sample)
	// Best returns the incumbent: the lowest-objective non-aborted sample
	// observed so far. ok is false when nothing succeeded yet.
	Best() (Sample, bool)
	// Done reports whether the policy's stopping rule has fired. Observing
	// further samples after Done is permitted (they still update Best).
	Done() bool
}

// Drive runs a Tuner to completion against an evaluator — the one batch
// mode of every policy. Every Tuner implementation carries its own
// stopping bound, so the loop runs until Done. It returns the tuner's
// Best; the evaluator holds every run it took.
func Drive(t Tuner, ev *Evaluator) (Sample, bool) {
	for !t.Done() {
		t.Observe(ev.Eval(t.Suggest()))
	}
	return t.Best()
}
