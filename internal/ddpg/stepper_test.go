package ddpg

import (
	"testing"

	"relm/internal/sim/cluster"
	"relm/internal/sim/workload"
	"relm/internal/tune"
)

// TestStepperMatchesBatchTune drives the incremental DDPG tuner by hand and
// checks it reproduces Tune exactly: same experiments, same best, and an
// equally trained agent.
func TestStepperMatchesBatchTune(t *testing.T) {
	cl := cluster.A()
	wl, _ := workload.ByName("SVM")
	opts := TuneOptions{MaxSteps: 3, Seed: 4}

	evBatch := tune.NewEvaluator(cl, wl, 6)
	batch := Tune(evBatch, nil, opts)

	evStep := tune.NewEvaluator(cl, wl, 6)
	st := NewTuner(cl, evStep.Space, nil, opts)
	for !st.Done() {
		cfg := st.Suggest()
		if again := st.Suggest(); again != cfg {
			t.Fatalf("Suggest not stable: %v then %v", cfg, again)
		}
		st.Observe(evStep.Eval(cfg))
	}
	inc := st.Result()

	if inc.Best.Config != batch.Best.Config || inc.Found != batch.Found {
		t.Fatalf("best diverged: %v vs %v", inc.Best.Config, batch.Best.Config)
	}
	hb, hs := evBatch.History(), evStep.History()
	if len(hb) != len(hs) {
		t.Fatalf("history lengths: %d vs %d", len(hb), len(hs))
	}
	for i := range hb {
		if hb[i].Config != hs[i].Config {
			t.Fatalf("experiment %d diverged: %v vs %v", i, hb[i].Config, hs[i].Config)
		}
	}
	if st.agent == nil || st.agent.ReplayLen() != opts.MaxSteps {
		t.Fatalf("agent replay: %d, want %d", st.agent.ReplayLen(), opts.MaxSteps)
	}
}

// TestStepperRuntimeOnlyObservations: a remote client reporting plain
// runtimes (no profiles) must still drive the RL loop to completion — on
// shuffle workloads too, where an all-zero guide model once produced NaN
// states and NaN suggested configurations.
func TestStepperRuntimeOnlyObservations(t *testing.T) {
	cl := cluster.A()
	for _, wlName := range []string{"K-means", "WordCount"} {
		wl, _ := workload.ByName(wlName)
		st := NewTuner(cl, tune.NewSpace(cl, wl), nil, TuneOptions{MaxSteps: 2, Seed: 1})

		for i := 0; !st.Done() && i < 10; i++ {
			cfg := st.Suggest()
			if cfg.CacheCapacity != cfg.CacheCapacity || cfg.ShuffleCapacity != cfg.ShuffleCapacity {
				t.Fatalf("%s: NaN in suggested config %+v", wlName, cfg)
			}
			st.Observe(tune.Sample{Config: cfg, RuntimeSec: float64(100 + i)})
		}
		if !st.Done() {
			t.Fatalf("%s: never finished", wlName)
		}
		if best, ok := st.Best(); !ok || best.RuntimeSec <= 0 {
			t.Fatalf("%s: best: ok=%v %+v", wlName, ok, best)
		}
	}
}
