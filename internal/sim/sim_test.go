package sim

import (
	"testing"

	"relm/internal/conf"
	"relm/internal/sim/cluster"
	"relm/internal/sim/workload"
)

func TestRunNProducesIndependentRuns(t *testing.T) {
	distinct := map[float64]bool{}
	for i := range 5 {
		r, _ := Run(cluster.A(), workload.SortByKey(), conf.DefaultShuffle(), 1+uint64(i)*7919)
		if r.RuntimeSec <= 0 {
			t.Fatal("bad runtime")
		}
		distinct[r.RuntimeSec] = true
	}
	if len(distinct) < 2 {
		t.Fatal("repeated runs should vary (seeded noise)")
	}
}

func TestRunMatchesExec(t *testing.T) {
	a, profA := Run(cluster.A(), workload.SVM(), conf.Default(), 7)
	b, profB := Run(cluster.A(), workload.SVM(), conf.Default(), 7)
	if a != b {
		t.Fatal("facade runs not deterministic")
	}
	if profA.Duration != profB.Duration {
		t.Fatal("profiles not deterministic")
	}
}
