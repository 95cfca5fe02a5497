// Package ddpg implements Deep Deterministic Policy Gradient (§5.3): an
// actor-critic, model-free reinforcement-learning agent over the continuous
// configuration space, with target networks, an experience-replay memory,
// Ornstein-Uhlenbeck exploration noise, and the CDBTune reward function that
// compares performance against both the previous step and the initial
// (default-configuration) run.
//
// Following the paper, the state is the set of resource-usage statistics of
// Table 6 augmented with the GBO guide metrics q1..q3 (Equation 8), giving
// the agent visibility into the internal memory pools.
package ddpg

import (
	"math"

	"relm/internal/nn"
	"relm/internal/simrand"
)

// Transition is one (s, a, r, s') experience.
type Transition struct {
	State     []float64
	Action    []float64
	Reward    float64
	NextState []float64
	Done      bool
}

// Replay is a bounded experience-replay memory with uniform sampling.
type Replay struct {
	buf  []Transition
	cap  int
	next int
	full bool
}

// NewReplay returns a memory holding up to capacity transitions.
func NewReplay(capacity int) *Replay {
	if capacity < 1 {
		capacity = 1
	}
	return &Replay{cap: capacity}
}

// Add stores a transition, evicting the oldest when full.
func (r *Replay) Add(t Transition) {
	if len(r.buf) < r.cap {
		r.buf = append(r.buf, t)
		return
	}
	r.buf[r.next] = t
	r.next = (r.next + 1) % r.cap
	r.full = true
}

// Len returns the number of stored transitions.
func (r *Replay) Len() int { return len(r.buf) }

// Sample draws n transitions uniformly with replacement.
func (r *Replay) Sample(rng *simrand.Rand, n int) []Transition {
	out := make([]Transition, 0, n)
	for i := 0; i < n && len(r.buf) > 0; i++ {
		out = append(out, r.buf[rng.Intn(len(r.buf))])
	}
	return out
}

// OUNoise is an Ornstein-Uhlenbeck process for temporally correlated
// exploration noise on continuous actions.
type OUNoise struct {
	Theta, Sigma, Mu float64
	state            []float64
	rng              *simrand.Rand
}

// NewOUNoise returns a process over dim dimensions.
func NewOUNoise(rng *simrand.Rand, dim int, theta, sigma float64) *OUNoise {
	return &OUNoise{Theta: theta, Sigma: sigma, state: make([]float64, dim), rng: rng}
}

// Sample advances the process and returns the current noise vector.
func (o *OUNoise) Sample() []float64 {
	out := make([]float64, len(o.state))
	for i := range o.state {
		o.state[i] += o.Theta*(o.Mu-o.state[i]) + o.Sigma*o.rng.Norm(0, 1)
		out[i] = o.state[i]
	}
	return out
}

// The agent's hyperparameters are CDBTune's; the paper runs DDPG at them
// alone.
const (
	hiddenWidth = 64   // width of both hidden layers, actor and critic
	discount    = 0.9  // γ
	softUpdate  = 0.01 // τ, the target networks' soft-update rate
	actorLR     = 1e-3
	criticLR    = 1e-3
	minibatch   = 16
	replayCap   = 1024
	ouSigma     = 0.3 // exploration noise
)

// Options sizes and seeds the agent.
type Options struct {
	StateDim  int
	ActionDim int
	Seed      uint64
}

// Agent is a DDPG learner.
type Agent struct {
	Opts Options

	actor *nn.Net
	// learner builds the critic and the targets on first use (Act has none);
	// criticRng is the critic's stream, forked at construction.
	actorTarget  *nn.Net
	critic       *nn.Net
	criticTarget *nn.Net
	criticRng    *simrand.Rand
	replay       *Replay
	noise        *OUNoise
	rng          *simrand.Rand
}

// NewAgent builds an agent for the given state/action dimensions.
func NewAgent(opts Options) *Agent {
	rng := simrand.New(opts.Seed ^ 0x6a09e667f3bcc909)
	a := &Agent{
		Opts:   opts,
		rng:    rng,
		replay: NewReplay(replayCap),
		noise:  NewOUNoise(rng.Fork(1), opts.ActionDim, 0.15, ouSigma),
	}
	h := hiddenWidth
	a.actor = nn.NewNet(rng.Fork(2), []int{opts.StateDim, h, h, opts.ActionDim}, nn.ReLU, nn.Tanh)
	a.criticRng = rng.Fork(3)
	return a
}

// learner builds the critic and the target networks on first use. Only
// Train and Load change the actor, and both come here first, so its target
// is the clone construction would have taken.
func (a *Agent) learner() {
	if a.critic == nil {
		o, h := a.Opts, hiddenWidth
		a.critic = nn.NewNet(a.criticRng, []int{o.StateDim + o.ActionDim, h, h, 1}, nn.ReLU, nn.Linear)
		a.actorTarget = a.actor.Clone()
		a.criticTarget = a.critic.Clone()
	}
}

// Act returns the policy action for a state, in [-1,1]^ActionDim. With
// explore set, OU noise is added and the result re-clipped.
func (a *Agent) Act(state []float64, explore bool) []float64 {
	out := a.actor.Forward(state, nil)
	if explore {
		noise := a.noise.Sample()
		for i := range out {
			out[i] = clip(out[i]+noise[i], -1, 1)
		}
	}
	return out
}

// Observe stores a transition in the replay memory.
func (a *Agent) Observe(t Transition) { a.replay.Add(t) }

// ReplayLen exposes the replay size.
func (a *Agent) ReplayLen() int { return a.replay.Len() }

// Train runs one minibatch update of the critic and actor plus the soft
// target updates. It is a no-op until the replay holds a minibatch.
func (a *Agent) Train() { a.train(minibatch) }

// train is Train on a minibatch of batch transitions; a test pins the
// weights an 8-transition minibatch trains.
func (a *Agent) train(batch int) {
	if a.replay.Len() < batch {
		return
	}
	a.learner()
	trans := a.replay.Sample(a.rng, batch)

	criticGrads := a.critic.NewGrads()
	actorGrads := a.actor.NewGrads()

	for _, t := range trans {
		// --- Critic target: y = r + γ·Q'(s', µ'(s')). ---
		y := t.Reward
		if !t.Done {
			a2 := a.actorTarget.Forward(t.NextState, nil)
			q2 := a.criticTarget.Forward(concat(t.NextState, a2), nil)[0]
			y += discount * q2
		}
		// --- Critic loss: (Q(s,a) − y)². ---
		var tape nn.Tape
		q := a.critic.Forward(concat(t.State, t.Action), &tape)[0]
		a.critic.Backward(&tape, []float64{2 * (q - y)}, criticGrads)

		// --- Actor: ascend Q(s, µ(s)). ---
		var atape nn.Tape
		act := a.actor.Forward(t.State, &atape)
		var qtape nn.Tape
		a.critic.Forward(concat(t.State, act), &qtape)
		// dQ/d[state,action]; take the action part, negate for ascent.
		gradIn := a.critic.Backward(&qtape, []float64{1}, a.critic.NewGrads())
		dqda := gradIn[len(t.State):]
		neg := make([]float64, len(dqda))
		for i, g := range dqda {
			neg[i] = -g
		}
		a.actor.Backward(&atape, neg, actorGrads)
	}

	a.critic.AdamStep(criticGrads, criticLR, batch)
	a.actor.AdamStep(actorGrads, actorLR, batch)
	a.criticTarget.SoftUpdate(a.critic, softUpdate)
	a.actorTarget.SoftUpdate(a.actor, softUpdate)
}

// ModelSizeBytes approximates the persisted model size (float32 weights), the
// quantity Table 10 reports.
func (a *Agent) ModelSizeBytes() int {
	a.learner()
	return 4 * (a.actor.ParamCount() + a.critic.ParamCount())
}

// CDBTuneReward is the reward of §5.3: it rewards improvement over both the
// initial performance perf0 and the previous step perfPrev (runtimes; lower
// is better).
func CDBTuneReward(perf0, perfPrev, perf float64) float64 {
	d0 := (perf0 - perf) / perf0
	dPrev := (perfPrev - perf) / perfPrev
	if d0 > 0 {
		return ((1+d0)*(1+d0) - 1) * math.Abs(1+dPrev)
	}
	return -((1-d0)*(1-d0) - 1) * math.Abs(1-dPrev)
}

func clip(v, lo, hi float64) float64 {
	if math.IsNaN(v) {
		return lo
	}
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func concat(a, b []float64) []float64 {
	out := make([]float64, 0, len(a)+len(b))
	out = append(out, a...)
	return append(out, b...)
}
