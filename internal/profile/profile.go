// Package profile defines the application-profile data model produced by the
// simulator and consumed by the tuners, mirroring the artifacts the paper
// collects with Thoth, the JMX GC profiler, Intel PAT, and custom Spark
// instrumentation (§4.1):
//
//   - a timeline of JVM pool usage per container,
//   - a timeline of container resource usage (CPU, disk, RSS),
//   - a timeline of the application cache and shuffle pools,
//   - an event log of tasks and GC events.
//
// StatsGenerator turns a Profile into the Table 6 statistics RelM and GBO use.
package profile

import (
	"fmt"
	"math"

	"relm/internal/conf"
)

// Sample is one point of a timeline: value V at simulated time T (seconds).
type Sample struct {
	T float64
	V float64
}

// Timeline is a time-ordered series of samples.
type Timeline []Sample

// Append adds a sample; callers must append in non-decreasing time order.
func (tl *Timeline) Append(t, v float64) { *tl = append(*tl, Sample{T: t, V: v}) }

// Max returns the maximum value of the timeline (0 if empty).
func (tl Timeline) Max() float64 {
	var m float64
	for _, s := range tl {
		if s.V > m {
			m = s.V
		}
	}
	return m
}

// At returns the value in effect at time t (last sample with T <= t).
func (tl Timeline) At(t float64) float64 {
	var v float64
	for _, s := range tl {
		if s.T > t {
			break
		}
		v = s.V
	}
	return v
}

// Mean returns the time-weighted mean of the timeline over its span.
func (tl Timeline) Mean() float64 {
	if len(tl) == 0 {
		return 0
	}
	if len(tl) == 1 {
		return tl[0].V
	}
	var area, span float64
	for i := 1; i < len(tl); i++ {
		dt := tl[i].T - tl[i-1].T
		area += tl[i-1].V * dt
		span += dt
	}
	if span == 0 {
		return tl[len(tl)-1].V
	}
	return area / span
}

// seriesMax remembers the maximum of the last timeline it was asked about
// (same samples, same memory), so a reader walking containers that share one
// series scans it once.
type seriesMax struct {
	tl  Timeline
	max float64
}

func (m *seriesMax) of(tl Timeline) float64 {
	if !sameSeries(tl, m.tl) {
		m.tl, m.max = tl, tl.Max()
	}
	return m.max
}

// sameSeries reports whether a and b are views of the same samples.
func sameSeries(a, b Timeline) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// GCEvent records one garbage collection observed in a container.
type GCEvent struct {
	T          float64 // start time, seconds
	Full       bool    // full GC (vs young GC)
	Pause      float64 // stop-the-world pause, seconds
	HeapBefore float64 // MB used before the collection
	HeapAfter  float64 // MB used after the collection
	OldAfter   float64 // MB in the Old pool after the collection
	CacheAtGC  float64 // MB of cache storage live at the collection
	// ShuffleAtGC is the MB of shuffle pool live at the collection. Zero also
	// means "not recorded": readers then consult ShuffleUsed.At(T).
	ShuffleAtGC float64
	Running     int // tasks running in the container at the collection
}

// TaskEvent records one task from the application event log.
type TaskEvent struct {
	Stage     int
	Index     int
	Container int
	Start     float64
	End       float64
	GCTime    float64 // seconds this task spent in GC pauses
	SpillMB   float64 // shuffle bytes spilled to disk
	ShuffleMB float64 // shuffle bytes processed
}

// TaskWave is the run-length form of the task log: Tasks tasks of one stage
// that were scheduled together and share every recorded quantity. Task k of
// the wave has index First+k and ran on container k % Containers.
type TaskWave struct {
	Stage, First, Tasks, Containers int
	Start, End                      float64
	GCTime, SpillMB, ShuffleMB      float64 // per task, as in TaskEvent
}

// ContainerProfile is the per-container slice of the profile.
//
// The timelines are read-only once the profile is built: the simulator gives
// every container of a run a capacity-clipped view of one shared series, so
// Append copies, but overwriting a sample in place would change them all.
// FirstTaskHeapMB is the container's own; its GC events are read with
// Profile.EachGC.
type ContainerProfile struct {
	ID        int
	Node      int
	HeapCapMB float64 // JVM heap size
	PhysCapMB float64 // resource-manager physical memory limit

	HeapUsed    Timeline // JVM heap occupancy, MB
	OldUsed     Timeline // Old-generation occupancy, MB
	RSS         Timeline // resident set size, MB
	CacheUsed   Timeline // application cache pool, MB
	ShuffleUsed Timeline // application shuffle pool, MB

	// FirstTaskHeapMB is the heap occupancy at the first task submission,
	// the paper's estimator for the Code Overhead pool Mi.
	FirstTaskHeapMB float64
}

// Profile is the complete artifact of one profiled application run.
type Profile struct {
	Workload string
	Config   conf.Config
	// HeapSizeMB is the heap of each container under Config (derived from
	// the cluster's per-node budget).
	HeapSizeMB float64
	// CoresPerNode records the cluster's physical core count, used by the
	// tuners to bound Task Concurrency.
	CoresPerNode int

	Duration float64 // wall-clock seconds
	Aborted  bool    // the job failed permanently

	Containers []*ContainerProfile
	Waves      []TaskWave

	// GCs records each collection once: a young one is container 0's and
	// carries its heap figures; a full one is every container's, and full
	// collection k left Residency[k*len(Containers)+c] MB live on container
	// c. EachGC expands both into a container's event log.
	GCs       []GCEvent
	Residency []float64

	CPUUtil  Timeline // cluster-average CPU utilization, 0..1
	DiskUtil Timeline // cluster-average disk utilization, 0..1

	// CPUShareAvg/DiskShareAvg are the raw average resource demands of the
	// application's tasks (without the measurement baseline of OS, GC and
	// service threads included in the utilization timelines). The Eq 4
	// concurrency models divide by per-task shares, so they use these.
	CPUShareAvg  float64
	DiskShareAvg float64

	// CacheHits / CacheRequests give the cache hit ratio H from the
	// application log: partitions served from cache over partitions asked.
	CacheHits     int
	CacheRequests int

	// SpilledMB / ShuffledMB give the data spillage fraction S.
	SpilledMB  float64
	ShuffledMB float64

	ContainerFailures int
}

// HitRatio returns H, the cache hit ratio (1 when the app does not cache).
func (p *Profile) HitRatio() float64 {
	if p.CacheRequests == 0 {
		return 1
	}
	return float64(p.CacheHits) / float64(p.CacheRequests)
}

// SpillFraction returns S, the fraction of shuffle data spilled to disk.
func (p *Profile) SpillFraction() float64 {
	if p.ShuffledMB == 0 {
		return 0
	}
	f := p.SpilledMB / p.ShuffledMB
	if f > 1 {
		f = 1
	}
	return f
}

// MaxHeapUtilization returns the peak heap occupancy across containers as a
// fraction of heap capacity — the metric plotted in Figures 4(b), 6(b), 7(b).
func (p *Profile) MaxHeapUtilization() float64 {
	var m float64
	var peak seriesMax
	for _, c := range p.Containers {
		if c.HeapCapMB <= 0 {
			continue
		}
		u := peak.of(c.HeapUsed) / c.HeapCapMB
		if u > m {
			m = u
		}
	}
	return m
}

// NumTasks returns the number of tasks the run executed.
func (p *Profile) NumTasks() int {
	n := 0
	for _, w := range p.Waves {
		n += w.Tasks
	}
	return n
}

// EachTask expands the waves into the per-task event log, in execution order.
func (p *Profile) EachTask(fn func(TaskEvent)) {
	for _, w := range p.Waves {
		t := TaskEvent{Stage: w.Stage, Start: w.Start, End: w.End, GCTime: w.GCTime, SpillMB: w.SpillMB, ShuffleMB: w.ShuffleMB}
		for k := 0; k < w.Tasks; k++ {
			t.Index, t.Container = w.First+k, k%max(1, w.Containers)
			fn(t)
		}
	}
}

// EachGC expands the GC log into container ci's events, in recording order.
// A full one's HeapBefore is 15% above its residency, capped at the heap.
func (p *Profile) EachGC(ci int, fn func(GCEvent)) {
	k := 0
	for _, g := range p.GCs {
		if g.Full {
			g.HeapAfter = p.Residency[k*len(p.Containers)+ci]
			g.HeapBefore = math.Min(p.HeapSizeMB, g.HeapAfter*1.15)
			k++
		} else if ci != 0 {
			continue
		}
		fn(g)
	}
}

// GCOverhead returns the average fraction of task time spent in GC pauses —
// the per-task GC overhead metric of Figures 7(c), 8, 9, 10.
func (p *Profile) GCOverhead() float64 {
	var gc, total float64
	for _, w := range p.Waves {
		dur := w.End - w.Start
		if dur <= 0 {
			continue
		}
		// One addition per task, not Tasks×: a float sum depends on its
		// order, and the figures are pinned to the per-task one.
		for k := 0; k < w.Tasks; k++ {
			gc += w.GCTime
			total += dur
		}
	}
	if total == 0 {
		return 0
	}
	f := gc / total
	if f > 1 {
		f = 1
	}
	return f
}

// String summarizes the profile for logs.
func (p *Profile) String() string {
	status := "ok"
	if p.Aborted {
		status = "ABORTED"
	}
	return fmt.Sprintf("%s [%s] %.1fmin %d containers %d tasks H=%.2f S=%.2f failures=%d",
		p.Workload, status, p.Duration/60, len(p.Containers), p.NumTasks(),
		p.HitRatio(), p.SpillFraction(), p.ContainerFailures)
}
