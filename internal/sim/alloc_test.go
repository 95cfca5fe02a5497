package sim_test

import (
	"runtime"
	"testing"
	"unsafe"

	"relm/internal/conf"
	"relm/internal/profile"
	"relm/internal/sim"
	"relm/internal/sim/cluster"
	"relm/internal/sim/workload"
)

// experiment is what every tuning step pays: one stress test plus one
// Table 6 extraction.
func experiment(cl cluster.Spec, wl workload.Spec) *profile.Profile {
	_, prof := sim.Run(cl, wl, conf.Default(), 1)
	profile.Generate(prof)
	return prof
}

// bytesPerRun is the heap an experiment allocates, averaged over a few runs.
func bytesPerRun(cl cluster.Spec, wl workload.Spec) float64 {
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		experiment(cl, wl)
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / runs
}

// TestExperimentAllocations pins the allocation count and bytes of one
// experiment to the recorded values, its bytes to growing no faster than the
// wave count, and — on a cluster with 4× the containers running 4× the
// tasks in the same waves — to growing by a container's own record plus its
// full-GC residencies only: a recorder that appends per task, or a struct
// per container per collection, fails.
func TestExperimentAllocations(t *testing.T) {
	cl, wl := cluster.A(), workload.PageRank()
	const (
		allocCeiling = 23    // measured; ratchet down, never up without naming the regression
		byteCeiling  = 45000 // measured 44.4 KB; likewise
	)
	if got := testing.AllocsPerRun(20, func() { experiment(cl, wl) }); got > allocCeiling {
		t.Errorf("PageRank experiment: %v allocs, ceiling %d", got, allocCeiling)
	}
	base := bytesPerRun(cl, wl)
	if base > byteCeiling {
		t.Errorf("PageRank experiment: %.0f bytes, ceiling %d", base, byteCeiling)
	}

	big := workload.Scale(wl, 4)
	waves := float64(len(experiment(cl, big).Waves)) / float64(len(experiment(cl, wl).Waves))
	if grew := bytesPerRun(cl, big) / base; grew > waves {
		t.Errorf("4× PageRank allocates %.2f× the bytes for %.2f× the waves", grew, waves)
	}

	// SortByKey runs its waves without failures at any width, so the wider
	// run repeats the narrow one's plan container for container.
	wl, big = workload.SortByKey(), workload.Scale(workload.SortByKey(), 4)
	base = bytesPerRun(cl, wl)
	wide := cl
	wide.Nodes *= 4
	small, large := experiment(cl, wl), experiment(wide, big)
	if len(large.Waves) != len(small.Waves) {
		t.Fatalf("4× the containers ran %d waves, want the %d of the base run", len(large.Waves), len(small.Waves))
	}
	// Per container: its record, the pointer to it and Generate's four
	// per-container floats. Per residency: the float itself, its share of
	// the append's spare capacity, and Generate's working copies.
	perContainer := float64(unsafe.Sizeof(profile.ContainerProfile{}) + 8 + 4*8)
	const perResidency = 6 * 8
	allowed := perContainer*float64(len(large.Containers)-len(small.Containers)) +
		perResidency*float64(len(large.Residency)-len(small.Residency))
	if grew := bytesPerRun(wide, big) - base; grew > allowed {
		t.Errorf("%d → %d containers: %.0f more bytes, %.0f allowed", len(small.Containers), len(large.Containers), grew, allowed)
	}
}
