package sim_test

import (
	"runtime"
	"testing"

	"relm/internal/conf"
	"relm/internal/profile"
	"relm/internal/sim"
	"relm/internal/sim/cluster"
	"relm/internal/sim/workload"
)

// experiment is what every tuning step pays: one stress test plus one
// Table 6 extraction.
func experiment(wl workload.Spec) *profile.Profile {
	_, prof := sim.Run(cluster.A(), wl, conf.Default(), 1)
	profile.Generate(prof)
	return prof
}

// bytesPerRun is the heap an experiment allocates, averaged over a few runs.
func bytesPerRun(wl workload.Spec) float64 {
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		experiment(wl)
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / runs
}

// TestExperimentAllocations pins the allocation count of one experiment to
// the recorded value, and its bytes to growing no faster than the wave count:
// a recorder that appends per task or per container fails both.
func TestExperimentAllocations(t *testing.T) {
	wl := workload.PageRank()
	const ceiling = 88 // measured; ratchet down, never up without naming the regression
	if got := testing.AllocsPerRun(20, func() { experiment(wl) }); got > ceiling {
		t.Errorf("PageRank experiment: %v allocs, ceiling %d", got, ceiling)
	}

	big := workload.Scale(wl, 4)
	waves := float64(len(experiment(big).Waves)) / float64(len(experiment(wl).Waves))
	if grew := bytesPerRun(big) / bytesPerRun(wl); grew > waves {
		t.Errorf("4× PageRank allocates %.2f× the bytes for %.2f× the waves", grew, waves)
	}
}
