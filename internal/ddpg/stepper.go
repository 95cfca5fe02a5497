package ddpg

import (
	"relm/internal/conf"
	"relm/internal/gbo"
	"relm/internal/sim/cluster"
	"relm/internal/tune"
)

// Tuner is the incremental form of the DDPG loop (Figure 15) behind the
// unified tune.Tuner interface. The first suggestion is the default
// configuration (the tuning request's starting state in CDBTune); every
// subsequent one is the actor's action on the latest state, drawn when the
// observation that produced that state arrives, so Suggest is a pure read.
// Each solicited observation forms a transition, feeds the replay buffer,
// and trains the agent, reproducing Tune's exact agent-interaction sequence
// when driven in lockstep.
type Tuner struct {
	cl    cluster.Spec
	sp    tune.Space
	opts  TuneOptions
	agent *Agent

	qmodel   *gbo.Model
	state    []float64
	perf0    float64
	perfPrev float64

	initialized bool
	steps       int // adaptive observations taken after the initial one

	// pending is the configuration Suggest hands out until it is observed;
	// action is the actor's output it was decoded from (nil for the
	// default configuration).
	pending conf.Config
	action  []float64

	best  tune.Sample
	found bool
	curve []float64
	done  bool
}

var _ tune.Tuner = (*Tuner)(nil)

// NewTuner builds an incremental DDPG tuner. Pass a previously trained
// agent to re-use its model on a new environment (§6.6), or nil to start
// fresh.
func NewTuner(cl cluster.Spec, sp tune.Space, agent *Agent, opts TuneOptions) *Tuner {
	opts.fill()
	if agent == nil {
		agent = NewAgent(Options{StateDim: StateDim, ActionDim: sp.Dim(), Seed: opts.Seed})
	}
	return &Tuner{cl: cl, sp: sp, opts: opts, agent: agent, pending: sp.Default()}
}

// Suggest returns the pending configuration, or the incumbent once Done.
func (t *Tuner) Suggest() conf.Config {
	if !t.done {
		return t.pending
	}
	if t.found {
		return t.best.Config
	}
	return t.sp.Default()
}

// Observe incorporates one measured sample: the first observation seeds the
// guide model Q and the starting state; later solicited ones — those whose
// Config equals Suggest() — form transitions and train the agent. Each
// solicited observation draws the next action. An unsolicited observation
// updates the incumbent but leaves the RL state and the pending action
// untouched, so the eventual transition stays consistent with the state
// its action was computed from.
func (t *Tuner) Observe(s tune.Sample) {
	if s.Objective <= 0 {
		s.Objective = s.RuntimeSec
	}
	t.record(s)
	// A runtime-only first observation leaves Q unbuilt; adopt the first
	// later sample that does carry statistics.
	t.ensureModel(s)
	solicited := !t.done && s.Config == t.pending

	if !t.initialized {
		t.initialized = true
		t.state = stateOf(s, t.qmodel)
		t.perf0 = s.Objective
		t.perfPrev = s.Objective
		if solicited {
			t.act()
		}
		return
	}
	if !solicited {
		return
	}
	next := stateOf(s, t.qmodel)
	if t.action != nil {
		reward := CDBTuneReward(t.perf0, t.perfPrev, s.Objective)
		t.agent.Observe(Transition{
			State:     t.state,
			Action:    t.action,
			Reward:    reward,
			NextState: next,
			Done:      t.steps == t.opts.MaxSteps-1,
		})
		for i := 0; i < t.opts.TrainPerStep; i++ {
			t.agent.Train()
		}
		t.steps++
	}
	t.state = next
	t.perfPrev = s.Objective
	if t.steps >= t.opts.MaxSteps {
		t.done = true
		return
	}
	t.act()
}

// act draws the next action, with exploration noise, on the current state.
func (t *Tuner) act() {
	t.action = t.agent.Act(t.state, true)
	t.pending = actionToConfig(t.sp, t.action)
}

// ensureModel builds the guide model Q from the first sample that carries
// profile statistics.
func (t *Tuner) ensureModel(s tune.Sample) {
	if t.qmodel != nil {
		return
	}
	if st, ok := s.DeriveStats(); ok {
		t.qmodel = gbo.NewModel(t.cl, st)
	}
}

func (t *Tuner) record(s tune.Sample) {
	if !s.Result.Aborted && (!t.found || s.Objective < t.best.Objective) {
		t.best, t.found = s, true
	}
	cur := s.Objective
	if t.found {
		cur = t.best.Objective
	}
	t.curve = append(t.curve, cur)
}

// Best returns the incumbent non-aborted sample.
func (t *Tuner) Best() (tune.Sample, bool) { return t.best, t.found }

// Done reports whether the step budget is exhausted.
func (t *Tuner) Done() bool { return t.done }

// Result assembles the batch-style report from the steps taken so far.
func (t *Tuner) Result() TuneResult {
	return TuneResult{
		Best:       t.best,
		Found:      t.found,
		Iterations: t.steps,
		Curve:      append([]float64(nil), t.curve...),
		Agent:      t.agent,
	}
}
