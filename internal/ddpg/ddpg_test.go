package ddpg

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"relm/internal/nn"
	"relm/internal/sim/cluster"
	"relm/internal/sim/workload"
	"relm/internal/simrand"
	"relm/internal/tune"
)

func TestReplayCapacityAndEviction(t *testing.T) {
	r := NewReplay(3)
	for i := 0; i < 5; i++ {
		r.Add(Transition{Reward: float64(i)})
	}
	if r.Len() != 3 {
		t.Fatalf("replay len = %d", r.Len())
	}
	// Oldest entries (0 and 1) must have been evicted.
	rewards := map[float64]bool{}
	for _, tr := range r.buf {
		rewards[tr.Reward] = true
	}
	if rewards[0] || rewards[1] {
		t.Fatal("eviction order wrong")
	}
}

func TestReplaySample(t *testing.T) {
	r := NewReplay(10)
	for i := 0; i < 4; i++ {
		r.Add(Transition{Reward: float64(i)})
	}
	rng := simrand.New(1)
	batch := r.Sample(rng, 8)
	if len(batch) != 8 {
		t.Fatalf("sample size = %d", len(batch))
	}
	empty := NewReplay(4)
	if len(empty.Sample(rng, 3)) != 0 {
		t.Fatal("sampling an empty replay should return nothing")
	}
}

func TestOUNoiseMeanReverts(t *testing.T) {
	rng := simrand.New(2)
	n := NewOUNoise(rng, 2, 0.15, 0.2)
	var sum float64
	const draws = 5000
	for i := 0; i < draws; i++ {
		for _, v := range n.Sample() {
			sum += v
		}
	}
	mean := sum / (2 * draws)
	if math.Abs(mean) > 0.25 {
		t.Fatalf("OU mean = %v, expected near 0", mean)
	}
}

func TestCDBTuneRewardSigns(t *testing.T) {
	// Faster than both the initial and the previous run: positive reward.
	if r := CDBTuneReward(100, 90, 80); r <= 0 {
		t.Fatalf("improvement reward = %v", r)
	}
	// Slower than the initial run: negative reward.
	if r := CDBTuneReward(100, 110, 130); r >= 0 {
		t.Fatalf("regression reward = %v", r)
	}
	// Bigger improvements earn bigger rewards.
	small := CDBTuneReward(100, 100, 95)
	big := CDBTuneReward(100, 100, 60)
	if big <= small {
		t.Fatal("reward must grow with improvement")
	}
}

func TestActBoundsAndDeterminism(t *testing.T) {
	agent := NewAgent(Options{StateDim: 5, ActionDim: 3, Seed: 3})
	state := []float64{0.1, 0.2, 0.3, 0.4, 0.5}
	a1 := agent.Act(state, false)
	a2 := agent.Act(state, false)
	for i := range a1 {
		if a1[i] < -1 || a1[i] > 1 {
			t.Fatalf("action out of bounds: %v", a1[i])
		}
		if a1[i] != a2[i] {
			t.Fatal("exploitation action must be deterministic")
		}
	}
	// Exploration perturbs but stays clipped.
	ae := agent.Act(state, true)
	for _, v := range ae {
		if v < -1 || v > 1 {
			t.Fatalf("explored action out of bounds: %v", v)
		}
	}
}

func TestTrainNoopUntilBatch(t *testing.T) {
	agent := NewAgent(Options{StateDim: 3, ActionDim: 2, Seed: 4})
	agent.Train() // must not panic with an empty replay
	if agent.ReplayLen() != 0 {
		t.Fatal("replay should be empty")
	}
}

func TestTrainKeepsWeightsFinite(t *testing.T) {
	agent := NewAgent(Options{StateDim: 4, ActionDim: 2, Seed: 5})
	rng := simrand.New(5)
	for i := 0; i < 64; i++ {
		s := []float64{rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()}
		a := []float64{rng.Range(-1, 1), rng.Range(-1, 1)}
		agent.Observe(Transition{State: s, Action: a, Reward: rng.Norm(0, 1), NextState: s})
	}
	for i := 0; i < 50; i++ {
		agent.Train()
	}
	out := agent.Act([]float64{0.5, 0.5, 0.5, 0.5}, false)
	for _, v := range out {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatal("training produced non-finite policy outputs")
		}
	}
}

// The critic should learn a trivially predictable reward landscape: reward
// equals the first action coordinate. After training, the actor should
// prefer high first coordinates.
func TestAgentLearnsTrivialPolicy(t *testing.T) {
	agent := NewAgent(Options{StateDim: 2, ActionDim: 1, Seed: 6})
	rng := simrand.New(6)
	state := []float64{0.5, 0.5}
	for i := 0; i < 400; i++ {
		a := []float64{rng.Range(-1, 1)}
		agent.Observe(Transition{State: state, Action: a, Reward: a[0], NextState: state, Done: true})
	}
	for i := 0; i < 400; i++ {
		agent.Train()
	}
	if out := agent.Act(state, false); out[0] < 0.5 {
		t.Fatalf("actor did not learn to maximize the reward: action %v", out[0])
	}
}

func TestModelSizeBytes(t *testing.T) {
	agent := NewAgent(Options{StateDim: StateDim, ActionDim: 4, Seed: 7})
	if agent.ModelSizeBytes() <= 0 {
		t.Fatal("model size must be positive")
	}
}

func TestTuneEndToEnd(t *testing.T) {
	ev := tune.NewEvaluator(cluster.A(), workload.SVM(), 8)
	tn := NewTuner(ev.Cluster, ev.Space, nil, TuneOptions{MaxSteps: 5, Seed: 8})
	if _, found := tune.Drive(tn, ev); !found {
		t.Fatal("tuning found nothing")
	}
	if ev.Evals() != 6 { // initial default + 5 steps
		t.Fatalf("evals = %d, want 6", ev.Evals())
	}
	if a := tn.Agent(); a == nil || a.ReplayLen() != 5 {
		t.Fatalf("the trained agent must be returned for re-use, holding one transition a step: %v", a)
	}
}

func TestTuneAgentReuse(t *testing.T) {
	evA := tune.NewEvaluator(cluster.A(), workload.SVM(), 9)
	first := NewTuner(evA.Cluster, evA.Space, nil, TuneOptions{MaxSteps: 4, Seed: 9})
	tune.Drive(first, evA)
	evB := tune.NewEvaluator(cluster.B(), workload.SVM(), 10)
	second := NewTuner(evB.Cluster, evB.Space, first.Agent(), TuneOptions{MaxSteps: 3, Seed: 10})
	_, found := tune.Drive(second, evB)
	if second.Agent() != first.Agent() {
		t.Fatal("agent must be carried through")
	}
	if !found {
		t.Fatal("re-used agent found nothing")
	}
}

func TestStateDimMatches(t *testing.T) {
	ev := tune.NewEvaluator(cluster.A(), workload.KMeans(), 11)
	tn := NewTuner(ev.Cluster, ev.Space, nil, TuneOptions{MaxSteps: 1, Seed: 11})
	tune.Drive(tn, ev)
	if tn.Agent().Opts.StateDim != StateDim {
		t.Fatal("agent state dimension mismatch")
	}
}

// TestLateLearnerIsTheEarlyOne: the critic and the target networks are built
// on first use. An agent that builds them at construction and one that
// waits for its first minibatch must act alike, bit for bit,
// before the learner exists and after training has used it.
func TestLateLearnerIsTheEarlyOne(t *testing.T) {
	opts := Options{StateDim: 3, ActionDim: 2, Seed: 21}
	early, late := NewAgent(opts), NewAgent(opts)
	early.learner()
	env := simrand.New(5)
	state := []float64{0.1, -0.2, 0.3}
	for step := 0; step < 2*minibatch; step++ {
		a, b := early.Act(state, true), late.Act(state, true)
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				t.Fatalf("step %d: action %v built early, %v built late", step, a, b)
			}
		}
		if step < minibatch-1 && late.critic != nil {
			t.Fatalf("step %d: learner built with %d of %d transitions", step, late.ReplayLen(), minibatch)
		}
		next := []float64{env.Float64(), env.Float64(), env.Float64()}
		tr := Transition{State: state, Action: a, Reward: env.Float64(), NextState: next}
		for _, ag := range []*Agent{early, late} {
			ag.Observe(tr)
			ag.Train()
		}
		state = next
	}
	if late.critic == nil {
		t.Fatal("learner never built")
	}
}

// TestTrainedWeightsDigest pins a trained agent's four networks bit for
// bit, so where and when Adam's state is allocated cannot move a weight.
func TestTrainedWeightsDigest(t *testing.T) {
	agent := NewAgent(Options{StateDim: 4, ActionDim: 2, Seed: 5})
	rng := simrand.New(5)
	for i := 0; i < 64; i++ {
		s := []float64{rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()}
		a := []float64{rng.Range(-1, 1), rng.Range(-1, 1)}
		agent.Observe(Transition{State: s, Action: a, Reward: rng.Norm(0, 1), NextState: s})
	}
	for i := 0; i < 24; i++ {
		agent.train(8)
	}
	h := sha256.New()
	for _, n := range []*nn.Net{agent.actor, agent.actorTarget, agent.critic, agent.criticTarget} {
		snap := n.Snapshot()
		for l := range snap.W {
			binary.Write(h, binary.LittleEndian, snap.W[l])
			binary.Write(h, binary.LittleEndian, snap.B[l])
		}
	}
	const want = "bf4669d2ffe0966376687bb2ab1e4721bc61a6f5d92a493b5537ebd4697c6b93"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("trained weights digest %s, want %s", got, want)
	}
}
