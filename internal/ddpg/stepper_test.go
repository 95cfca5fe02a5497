package ddpg

import (
	"testing"

	"relm/internal/sim/cluster"
	"relm/internal/sim/workload"
	"relm/internal/tune"
)

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
