package relm_test

import (
	"testing"

	"relm"
)

// TestHeadlineClaimsAcrossSeeds pins the paper's headline results against
// seed choice, so simulator recalibrations cannot silently break them:
//
//  1. RelM tunes from at most two profiling runs and its recommendation
//     never aborts.
//  2. The recommendation beats the MaxResourceAllocation default.
//  3. The black-box optimizers also beat the default, at a higher
//     experiment count.
func TestHeadlineClaimsAcrossSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-seed sweep")
	}
	cl := relm.ClusterA()
	for _, seed := range []uint64{3, 17, 101} {
		for _, name := range []string{"WordCount", "K-means", "SVM"} {
			wl, err := relm.WorkloadByName(name)
			if err != nil {
				t.Fatal(err)
			}
			// Default reference (median of 3).
			var defRuntimes []float64
			for i := uint64(0); i < 3; i++ {
				res, _ := relm.Simulate(cl, wl, defaultFor(wl), seed*100+i)
				defRuntimes = append(defRuntimes, res.RuntimeSec)
			}
			def := median(defRuntimes)

			// RelM.
			ev := relm.NewEvaluator(cl, wl, seed)
			cfg, _, err := relm.NewRelM(cl).TuneWorkload(ev)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, name, err)
			}
			if ev.Evals() > 2 {
				t.Errorf("seed %d %s: RelM used %d profiling runs", seed, name, ev.Evals())
			}
			var recRuntimes []float64
			for i := uint64(0); i < 3; i++ {
				res, _ := relm.Simulate(cl, wl, cfg, seed*200+i)
				if res.Aborted {
					t.Errorf("seed %d %s: RelM recommendation aborted", seed, name)
				}
				recRuntimes = append(recRuntimes, res.RuntimeSec)
			}
			if rec := median(recRuntimes); rec >= def {
				t.Errorf("seed %d %s: RelM %v not faster than default %v", seed, name, rec, def)
			}

			// BO must also beat the default, using more experiments.
			evBO := relm.NewEvaluator(cl, wl, seed+7)
			best, found := relm.DriveTuner(relm.NewBOTuner(cl, wl, relm.BOOptions{Seed: seed + 7, UsePaperLHS: true}), evBO)
			if !found {
				t.Fatalf("seed %d %s: BO found nothing", seed, name)
			}
			if best.Objective >= def {
				t.Errorf("seed %d %s: BO best %v not faster than default %v", seed, name, best.Objective, def)
			}
			if evBO.Evals() <= ev.Evals() {
				t.Errorf("seed %d %s: BO should need more experiments than RelM", seed, name)
			}
		}
	}
}

func defaultFor(wl relm.Workload) relm.Config {
	if wl.UsesCache {
		return relm.DefaultConfig()
	}
	return relm.DefaultShuffleConfig()
}

func median(xs []float64) float64 {
	// Small fixed-size inputs; insertion sort suffices.
	s := append([]float64(nil), xs...)
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	return s[len(s)/2]
}
