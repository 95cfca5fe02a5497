// Package workload defines the resource signatures of the benchmark
// applications the paper evaluates (Table 2): WordCount and SortByKey
// (map/reduce), K-means and SVM (iterative machine learning over cached
// data), PageRank (distributed graph processing on GraphX), and the 22
// TPC-H queries (SQL).
//
// A workload is a sequence of stages; each stage is described by its task
// count and per-task resource footprints (input, shuffle, cache, unmanaged
// working set, allocation volume, network fetches, CPU demand). These
// signatures — not the computations themselves — are what drive memory
// behaviour, which is all the paper's tuners observe.
package workload

import (
	"fmt"
	"slices"
	"sync"
)

// StageSpec describes one stage of computation.
type StageSpec struct {
	Name string
	// Tasks is the number of tasks (data partitions) of the stage.
	Tasks int
	// Repeat > 1 replays the stage (iterative computations). Each repeat is
	// a full pass over the stage's tasks.
	Repeat int

	// CPUSecPerTask is uncontended compute time of one task on one core.
	CPUSecPerTask float64
	// CPUCoresPerTask is the core demand while the task runs (typically 1).
	CPUCoresPerTask float64

	// InputMBPerTask is data read from local disk (HDFS).
	InputMBPerTask float64
	// OutputMBPerTask is data written to local disk.
	OutputMBPerTask float64

	// ShuffleWriteMBPerTask is map-side shuffle output.
	ShuffleWriteMBPerTask float64
	// ShuffleReadMBPerTask is reduce-side shuffle input fetched over the
	// network.
	ShuffleReadMBPerTask float64
	// ShuffleNeedMBPerTask is the memory required to process the shuffle
	// data fully in memory (sort/aggregation working set, typically the
	// deserialized expansion of ShuffleReadMBPerTask). When the granted
	// shuffle share is smaller, the task spills.
	ShuffleNeedMBPerTask float64

	// UnmanagedMBPerTask is the live task-unmanaged working set: input
	// deserialization buffers, code data structures, partially processed
	// partitions — the pool the framework does not track (Mu).
	UnmanagedMBPerTask float64
	// AllocFactor scales transient heap allocation volume relative to the
	// bytes processed (object churn).
	AllocFactor float64

	// CacheWriteMBPerTask is data the task asks the block manager to cache.
	CacheWriteMBPerTask float64
	// CacheReadMBPerTask is data the task reads from cache; misses trigger
	// lineage recomputation.
	CacheReadMBPerTask float64

	// NetworkMBPerTask is remote data fetched through native byte buffers
	// (off-heap); it drives RSS growth between GCs.
	NetworkMBPerTask float64
}

// BytesProcessed returns the per-task bytes that flow through the heap.
func (s StageSpec) BytesProcessed() float64 {
	return s.InputMBPerTask + s.ShuffleReadMBPerTask + s.CacheReadMBPerTask
}

// Spec is a complete application workload.
type Spec struct {
	Name     string
	Category string
	// PartitionMB is the input partition size (Table 2's physical-design
	// dimension).
	PartitionMB float64
	// CodeOverheadMB is the constant per-container footprint of application
	// code objects (the Mi pool).
	CodeOverheadMB float64
	// CacheNeedMB is the cluster-wide volume the application asks to cache.
	CacheNeedMB float64
	// RecomputeCPUSecPerMB is the lineage recomputation cost of a missed
	// cached partition, per MB, on top of re-reading it from disk.
	RecomputeCPUSecPerMB float64
	// RecomputeNetMBPerMB is remote refetching per missed MB (PageRank's
	// coalesce lineage refetches over the network).
	RecomputeNetMBPerMB float64
	// UsesCache marks cache as the dominant internal pool (vs shuffle) —
	// used by the tuners' dimensionality reduction (§6.1).
	UsesCache bool

	Stages []StageSpec
}

// TotalTasks returns the task count across all stages including repeats.
func (w Spec) TotalTasks() int {
	n := 0
	for _, s := range w.Stages {
		r := s.Repeat
		if r < 1 {
			r = 1
		}
		n += s.Tasks * r
	}
	return n
}

// Validate reports structural problems.
func (w Spec) Validate() error {
	if w.Name == "" {
		return fmt.Errorf("workload: empty name")
	}
	if len(w.Stages) == 0 {
		return fmt.Errorf("workload %s: no stages", w.Name)
	}
	for i, s := range w.Stages {
		if s.Tasks < 1 {
			return fmt.Errorf("workload %s stage %d: no tasks", w.Name, i)
		}
		if s.CPUSecPerTask < 0 || s.CPUCoresPerTask <= 0 {
			return fmt.Errorf("workload %s stage %d: bad CPU spec", w.Name, i)
		}
	}
	return nil
}

// WordCount models the map/reduce WordCount over 50GB of RandomTextWriter
// output with 128MB partitions: CPU-heavy map tasks with a small aggregated
// shuffle, no caching.
func WordCount() Spec {
	const inputMB = 50 * 1024
	maps := int(inputMB / 128) // 400
	return Spec{
		Name:           "WordCount",
		Category:       "Map and Reduce",
		PartitionMB:    128,
		CodeOverheadMB: 110,
		UsesCache:      false,
		Stages: []StageSpec{
			{
				Name: "map", Tasks: maps,
				CPUSecPerTask: 16, CPUCoresPerTask: 0.8,
				InputMBPerTask:        128,
				ShuffleWriteMBPerTask: 10,
				UnmanagedMBPerTask:    230,
				AllocFactor:           3.0,
			},
			{
				Name: "reduce", Tasks: 64,
				CPUSecPerTask: 5, CPUCoresPerTask: 1.0,
				ShuffleReadMBPerTask: float64(maps) * 10 / 64,
				ShuffleNeedMBPerTask: 90,
				OutputMBPerTask:      6,
				UnmanagedMBPerTask:   110,
				AllocFactor:          2.0,
				NetworkMBPerTask:     50,
			},
		},
	}
}

// SortByKey models the map/reduce sort over 30GB with deliberately large
// 512MB partitions: the reduce side performs an in-memory sort whose working
// set greatly exceeds the serialized shuffle bytes, so shuffle-memory and
// NewRatio interact strongly (Figures 7 and 10).
func SortByKey() Spec {
	const inputMB = 30 * 1024
	maps := int(inputMB / 512) // 60
	return Spec{
		Name:           "SortByKey",
		Category:       "Map and Reduce",
		PartitionMB:    512,
		CodeOverheadMB: 115,
		UsesCache:      false,
		Stages: []StageSpec{
			{
				Name: "map", Tasks: maps,
				CPUSecPerTask: 40, CPUCoresPerTask: 1.0,
				InputMBPerTask:        512,
				ShuffleWriteMBPerTask: 512,
				UnmanagedMBPerTask:    160,
				AllocFactor:           2.0,
			},
			{
				Name: "sort-reduce", Tasks: maps,
				CPUSecPerTask: 55, CPUCoresPerTask: 1.0,
				ShuffleReadMBPerTask: 512,
				ShuffleNeedMBPerTask: 1150, // deserialized sort working set
				OutputMBPerTask:      512,
				UnmanagedMBPerTask:   120,
				AllocFactor:          2.2,
				NetworkMBPerTask:     450,
			},
		},
	}
}

// KMeans models HiBench-huge K-means: ~16GB of samples in 128MB partitions,
// cached with ~1.5× deserialization expansion (≈24GB), 8 clustering
// iterations over the cached data. Cache misses recompute the load lineage.
func KMeans() Spec {
	const inputMB = 16 * 1024
	parts := int(inputMB / 128) // 128
	return Spec{
		Name:                 "K-means",
		Category:             "Machine Learning",
		PartitionMB:          128,
		CodeOverheadMB:       95,
		CacheNeedMB:          24320,
		RecomputeCPUSecPerMB: 0.10,
		UsesCache:            true,
		Stages: []StageSpec{
			{
				Name: "load-cache", Tasks: parts,
				CPUSecPerTask: 14, CPUCoresPerTask: 0.75,
				InputMBPerTask:      128,
				CacheWriteMBPerTask: 24320 / float64(parts),
				UnmanagedMBPerTask:  340,
				AllocFactor:         3.0,
			},
			{
				Name: "assign-update", Tasks: parts, Repeat: 8,
				CPUSecPerTask: 11, CPUCoresPerTask: 0.75,
				CacheReadMBPerTask:    24320 / float64(parts),
				ShuffleWriteMBPerTask: 0.5,
				ShuffleReadMBPerTask:  0.5,
				ShuffleNeedMBPerTask:  4,
				UnmanagedMBPerTask:    340,
				AllocFactor:           1.6,
			},
		},
	}
}

// SVM models HiBench-huge SVM: ~12GB input in small 32MB partitions (small
// task working sets), cached data of roughly half the cluster heap — the app
// whose cache fits fully once Cache Capacity reaches 0.5 (Figure 7d) and
// whose default profiles often contain no full-GC events (Figure 22).
func SVM() Spec {
	const inputMB = 12 * 1024
	parts := int(inputMB / 32) // 384
	return Spec{
		Name:                 "SVM",
		Category:             "Machine Learning",
		PartitionMB:          32,
		CodeOverheadMB:       90,
		CacheNeedMB:          17600,
		RecomputeCPUSecPerMB: 0.09,
		UsesCache:            true,
		Stages: []StageSpec{
			{
				Name: "load-cache", Tasks: parts,
				CPUSecPerTask: 3.6, CPUCoresPerTask: 0.75,
				InputMBPerTask:      32,
				CacheWriteMBPerTask: 17600 / float64(parts),
				UnmanagedMBPerTask:  85,
				AllocFactor:         3.0,
			},
			{
				Name: "gradient", Tasks: parts, Repeat: 6,
				CPUSecPerTask: 2.6, CPUCoresPerTask: 0.75,
				CacheReadMBPerTask:    17600 / float64(parts),
				ShuffleWriteMBPerTask: 0.2,
				ShuffleReadMBPerTask:  0.2,
				ShuffleNeedMBPerTask:  2,
				UnmanagedMBPerTask:    85,
				AllocFactor:           1.5,
			},
		},
	}
}

// PageRank models LiveJournalPageRank on GraphX: a coalesce stage that
// fetches edge partitions over the network into large unmanaged buffers and
// caches the coalesced graph (far bigger than the available cache), then
// rank iterations that recompute the expensive coalesce lineage on every
// cache miss (§3.5).
func PageRank() Spec {
	const coalesceParts = 32
	const graphMB = 58000.0 // in-memory GraphX representation of 69M edges
	return Spec{
		Name:                 "PageRank",
		Category:             "Graph",
		PartitionMB:          128,
		CodeOverheadMB:       115,
		CacheNeedMB:          graphMB,
		RecomputeCPUSecPerMB: 0.020,
		RecomputeNetMBPerMB:  0.55,
		UsesCache:            true,
		Stages: []StageSpec{
			{
				Name: "coalesce-cache", Tasks: coalesceParts,
				CPUSecPerTask: 20, CPUCoresPerTask: 1.0,
				InputMBPerTask:      36,
				NetworkMBPerTask:    1850, // entire edge partitions fetched remotely
				CacheWriteMBPerTask: graphMB / coalesceParts,
				UnmanagedMBPerTask:  760,
				AllocFactor:         0.6,
			},
			{
				Name: "rank", Tasks: 64, Repeat: 10,
				CPUSecPerTask: 17, CPUCoresPerTask: 1.0,
				CacheReadMBPerTask:    graphMB / 64,
				ShuffleWriteMBPerTask: 26,
				ShuffleReadMBPerTask:  26,
				ShuffleNeedMBPerTask:  30,
				UnmanagedMBPerTask:    760,
				AllocFactor:           1.7,
				NetworkMBPerTask:      120,
			},
		},
	}
}

// Scale returns a copy of the workload with its dataset scaled by factor:
// task counts and the cluster-wide cache requirement grow proportionally
// while per-task footprints stay fixed (more partitions of the same size —
// how HiBench scale factors behave). Used for the paper's s1→s2 dataset
// change (§6.6, Figure 27).
func Scale(w Spec, factor float64) Spec {
	if factor <= 0 {
		factor = 1
	}
	out := w
	if factor != 1 {
		out.Name = fmt.Sprintf("%s-x%.1f", w.Name, factor)
	}
	out.CacheNeedMB = w.CacheNeedMB * factor
	out.Stages = make([]StageSpec, len(w.Stages))
	copy(out.Stages, w.Stages)
	for i := range out.Stages {
		tasks := int(float64(out.Stages[i].Tasks) * factor)
		if tasks < 1 {
			tasks = 1
		}
		out.Stages[i].Tasks = tasks
	}
	return out
}

// Benchmarks returns the five non-SQL applications of Table 2 in the order
// the paper's figures use.
func Benchmarks() []Spec {
	return []Spec{WordCount(), SortByKey(), KMeans(), SVM(), PageRank()}
}

// ByName looks up a benchmark (including "TPC-H Qn" names) by name. The
// returned Spec's Stages are its own: changing them changes no later
// lookup.
func ByName(name string) (Spec, bool) {
	w, ok := byName()[name]
	w.Stages = slices.Clone(w.Stages)
	return w, ok
}

// byName is every workload ByName knows, built on first use.
var byName = sync.OnceValue(func() map[string]Spec {
	all := append(Benchmarks(), TPCH()...)
	m := make(map[string]Spec, len(all))
	for _, w := range all {
		m[w.Name] = w
	}
	return m
})
