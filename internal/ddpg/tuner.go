package ddpg

import (
	"relm/internal/conf"
	"relm/internal/gbo"
	"relm/internal/tune"
)

// TuneOptions drives the RL tuning loop of Figure 15.
type TuneOptions struct {
	// MaxSteps is the stopping budget of new samples (the paper stops DDPG
	// after observing 10 new samples).
	MaxSteps int
	// TrainPerStep is the number of minibatch updates after each
	// observation.
	TrainPerStep int
	Seed         uint64
}

func (o *TuneOptions) fill() {
	if o.MaxSteps == 0 {
		o.MaxSteps = 10
	}
	if o.TrainPerStep == 0 {
		o.TrainPerStep = 8
	}
}

// StateDim is the dimensionality of the environment state: the Table 6
// statistics (normalized) plus the three Q guide metrics and two run
// outcomes (heap utilization, GC overhead).
const StateDim = 13

// stateOf featurizes a sample for the agent. Samples without profile
// statistics (remote observations reporting plain runtimes) featurize to
// zeroed resource statistics, and a nil guide model (no profiled sample
// yet) to zeroed guide metrics — the agent still sees the run outcome.
func stateOf(s tune.Sample, q *gbo.Model) []float64 {
	st, _ := s.DeriveStats()
	mh := st.MhMB
	if mh <= 0 {
		mh = 1
	}
	var metrics [3]float64
	if q != nil {
		metrics = q.Metrics(s.Config)
	}
	aborted := 0.0
	if s.Result.Aborted {
		aborted = 1
	}
	return []float64{
		st.CPUAvg,
		st.DiskAvg,
		st.MiMB / mh,
		st.McMB / mh,
		st.MsMB / mh,
		st.MuMB / mh,
		float64(st.P) / 8,
		st.H,
		st.S,
		s.Result.GCOverhead,
		clip(metrics[0], 0, 2) / 2,
		clip(metrics[1], 0, 3) / 3,
		aborted,
	}
}

// actionToConfig maps an action in [-1,1]^4 to a configuration through the
// normalized space.
func actionToConfig(sp tune.Space, a []float64) conf.Config {
	x := make([]float64, len(a))
	for i, v := range a {
		x[i] = (v + 1) / 2
	}
	return sp.Decode(x)
}
