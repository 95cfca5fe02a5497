package profile

import (
	"fmt"

	"relm/internal/stats"
)

// Stats is the set of statistics derived from an application profile —
// Table 6 of the paper. Memory quantities are MB.
type Stats struct {
	N       int     // containers per node in the profiled run
	MhMB    float64 // heap size of the profiled containers
	CPUAvg  float64 // average CPU usage, 0..1
	DiskAvg float64 // average disk usage, 0..1
	MiMB    float64 // Code Overhead, 90th percentile
	McMB    float64 // Cache Storage, 90th percentile of per-container maxima
	MsMB    float64 // per-task Task Shuffle, 90th percentile
	MuMB    float64 // per-task Task Unmanaged, 90th percentile
	P       int     // task concurrency of the profiled run
	H       float64 // cache hit ratio
	S       float64 // data spillage fraction

	// HadFullGC reports whether the profile contained any full GC events.
	// Without them Mu falls back to the maximum Old-pool occupancy, an
	// over-estimate of up to two orders of magnitude (§4.1, Figure 22).
	HadFullGC bool

	// CoresPerNode is carried from the profile for concurrency bounds.
	CoresPerNode int
}

// Generate derives Table 6 statistics from a profile, following §4.1:
//
//   - Mi is the 90th-percentile (across containers) heap occupancy at the
//     first task submission.
//   - Mc is the 90th-percentile of per-container maximum cache usage.
//   - Ms assumes every concurrently running task contributes equally to the
//     observed shuffle pool.
//   - Mu is measured at full-GC events only: heap-after minus code overhead
//     minus live cache, split across the running tasks; the 90th percentile
//     over all full-GC observations is reported. When the profile contains
//     no full GC, the maximum Old-pool occupancy (minus Mi and cache) is
//     used instead and HadFullGC is false.
func Generate(p *Profile) Stats {
	cpu, disk := p.CPUShareAvg, p.DiskShareAvg
	if cpu == 0 {
		cpu = p.CPUUtil.Mean()
	}
	if disk == 0 {
		disk = p.DiskUtil.Mean()
	}
	s := Stats{
		N:            p.Config.ContainersPerNode,
		MhMB:         p.HeapSizeMB,
		CPUAvg:       cpu,
		DiskAvg:      disk,
		P:            p.Config.TaskConcurrency,
		H:            p.HitRatio(),
		S:            p.SpillFraction(),
		CoresPerNode: p.CoresPerNode,
	}

	n := len(p.Containers)
	mis, mcs, oldPeaks := make([]float64, 0, n), make([]float64, 0, n), make([]float64, 0, n)
	var mss, mus []float64
	var cachePeak, shufflePeak, oldPeak seriesMax
	for _, c := range p.Containers {
		mis = append(mis, c.FirstTaskHeapMB)
		mcs = append(mcs, cachePeak.of(c.CacheUsed))
		if peak := shufflePeak.of(c.ShuffleUsed); peak > 0 {
			mss = append(mss, peak/float64(max(1, s.P)))
		}
		for _, gc := range c.GCEvents {
			if !gc.Full {
				continue
			}
			s.HadFullGC = true
			running := max(1, gc.Running)
			perTask := (gc.HeapAfter - c.FirstTaskHeapMB - gc.CacheAtGC) / float64(running)
			// Subtract the shuffle component: the instantaneous Task Shuffle
			// value is available from instrumentation; the remainder is the
			// unmanaged pool.
			shuffle := gc.ShuffleAtGC
			if shuffle == 0 {
				shuffle = c.ShuffleUsed.At(gc.T)
			}
			perTask -= shuffle / float64(running)
			if perTask < 0 {
				perTask = 0
			}
			mus = append(mus, perTask)
		}
		oldPeaks = append(oldPeaks, oldPeak.of(c.OldUsed))
	}

	s.MiMB = stats.Percentile(mis, 90)
	s.McMB = stats.Percentile(mcs, 90)
	s.MsMB = stats.Percentile(mss, 90)

	if s.HadFullGC {
		s.MuMB = stats.Percentile(mus, 90)
	} else {
		// Fall back to the maximum Old-pool occupancy. Without full-GC
		// events the Old contents cannot be attributed between cache blocks,
		// prematurely tenured garbage and genuine task data, so everything
		// beyond the code overhead is (over-)charged to the tasks — the up
		// to two-orders-of-magnitude over-estimate of Figure 22.
		old := stats.Percentile(oldPeaks, 90)
		s.MuMB = (old - s.MiMB) / float64(max(1, s.P))
	}
	if s.MuMB < 1 {
		s.MuMB = 1
	}
	return s
}

// String renders the statistics in Table 6's layout.
func (s Stats) String() string {
	return fmt.Sprintf(
		"N=%d Mh=%.0fMB CPUavg=%.0f%% Diskavg=%.0f%% Mi=%.0fMB Mc=%.0fMB Ms=%.0fMB Mu=%.0fMB P=%d H=%.2f S=%.2f fullGC=%v",
		s.N, s.MhMB, s.CPUAvg*100, s.DiskAvg*100, s.MiMB, s.McMB, s.MsMB, s.MuMB, s.P, s.H, s.S, s.HadFullGC)
}
