// Package tune defines the configuration space of Table 1 for a given
// cluster and workload, the evaluation harness shared by all tuning policies
// (objective = application runtime, with the paper's abort penalty of twice
// the worst runtime seen so far), and the baseline search policies:
// exhaustive grid search, Latin Hypercube Sampling, and recursive random
// search.
package tune

import (
	"fmt"
	"math"

	"relm/internal/conf"
	"relm/internal/sim/cluster"
	"relm/internal/sim/workload"
	"relm/internal/units"
)

// Space is the tunable domain for one (cluster, workload) pair. Following
// §6.1, four dimensions are explored: Containers per Node (1–4), Task
// Concurrency (1..cores/n), the dominant internal pool capacity (cache for
// caching apps, shuffle otherwise; the minor pool is pinned at 0.1), and
// NewRatio (1–9; higher values leave under 10% of heap to Young).
type Space struct {
	Cluster cluster.Spec
	// UsesCache selects which of Cache/Shuffle Capacity is the tuned
	// (dominant) pool.
	UsesCache bool
	// MinorPool is the fixed fraction for the non-dominant pool.
	MinorPool float64
	// MaxContainers bounds Containers per Node.
	MaxContainers int
	// MaxNewRatio bounds NewRatio (the paper caps it at 9).
	MaxNewRatio int
}

// NewSpace builds the standard evaluation space for a workload.
func NewSpace(cl cluster.Spec, wl workload.Spec) Space {
	return Space{
		Cluster:       cl,
		UsesCache:     wl.UsesCache,
		MinorPool:     0.1,
		MaxContainers: 4,
		MaxNewRatio:   9,
	}
}

// Dim returns the dimensionality of the normalized space.
func (s Space) Dim() int { return 4 }

// MaxConcurrency returns the Task Concurrency upper bound for n containers
// per node.
func (s *Space) MaxConcurrency(n int) int {
	return s.Cluster.MaxConcurrencyPerContainer(n)
}

// Decode maps a point of [0,1]^4 to a concrete configuration. The
// concurrency coordinate is interpreted relative to its container-dependent
// range, which keeps the normalized space rectangular.
func (s *Space) Decode(x []float64) conf.Config {
	if len(x) != s.Dim() {
		panic(fmt.Sprintf("tune: Decode expects %d dims, got %d", s.Dim(), len(x)))
	}
	n := 1 + int(units.Clamp(x[0], 0, 0.999)*float64(s.MaxContainers))
	maxP := s.MaxConcurrency(n)
	p := 1 + int(math.Round(units.Clamp(x[1], 0, 1)*float64(maxP-1)))
	capacity := 0.05 + units.Clamp(x[2], 0, 1)*0.85
	nr := 1 + int(math.Round(units.Clamp(x[3], 0, 1)*float64(s.MaxNewRatio-1)))
	return s.Build(n, p, capacity, nr)
}

// Build assembles a configuration with the dominant-pool convention.
func (s *Space) Build(n, p int, capacity float64, nr int) conf.Config {
	c := conf.Config{
		ContainersPerNode: units.ClampInt(n, 1, s.MaxContainers),
		TaskConcurrency:   p,
		NewRatio:          units.ClampInt(nr, 1, s.MaxNewRatio),
		SurvivorRatio:     8,
	}
	c.TaskConcurrency = units.ClampInt(p, 1, s.MaxConcurrency(c.ContainersPerNode))
	capacity = units.Clamp(capacity, 0, 0.9-s.MinorPool)
	if s.UsesCache {
		c.CacheCapacity = capacity
		c.ShuffleCapacity = s.MinorPool
	} else {
		c.ShuffleCapacity = capacity
		c.CacheCapacity = 0 // non-caching workloads get no storage pool
	}
	return c
}

// Encode maps a configuration back to [0,1]^4 (inverse of Decode up to
// rounding).
func (s Space) Encode(c conf.Config) []float64 {
	x := make([]float64, s.Dim())
	x[0] = (float64(c.ContainersPerNode) - 0.5) / float64(s.MaxContainers)
	maxP := s.MaxConcurrency(c.ContainersPerNode)
	if maxP > 1 {
		x[1] = float64(c.TaskConcurrency-1) / float64(maxP-1)
	}
	capacity := c.ShuffleCapacity
	if s.UsesCache {
		capacity = c.CacheCapacity
	}
	x[2] = units.Clamp((capacity-0.05)/0.85, 0, 1)
	x[3] = float64(c.NewRatio-1) / float64(s.MaxNewRatio-1)
	return x
}

// Default returns the MaxResourceAllocation + framework-defaults
// configuration (Table 4) expressed in this space's dominant-pool
// convention.
func (s Space) Default() conf.Config {
	if s.UsesCache {
		return conf.Default()
	}
	return conf.DefaultShuffle()
}

// Grid enumerates the exhaustive-search grid of §6.1: each dimension
// discretized into four values (three for NewRatio), 192 configurations.
func (s Space) Grid() []conf.Config {
	capacities := []float64{0.2, 0.4, 0.6, 0.8}
	newRatios := []int{1, 3, 5}
	var out []conf.Config
	for n := 1; n <= s.MaxContainers; n++ {
		maxP := s.MaxConcurrency(n)
		for _, pf := range []float64{0, 1.0 / 3, 2.0 / 3, 1} {
			p := 1 + int(math.Round(pf*float64(maxP-1)))
			for _, capacity := range capacities {
				for _, nr := range newRatios {
					out = append(out, s.Build(n, p, capacity, nr))
				}
			}
		}
	}
	return dedupe(out)
}

func dedupe(cs []conf.Config) []conf.Config {
	seen := make(map[conf.Config]bool, len(cs))
	out := cs[:0]
	for _, c := range cs {
		if !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	return out
}
