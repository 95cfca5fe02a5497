// Package loadgen is the scenario-driven load harness of the tuning
// service: it turns a declarative scenario (arrival process,
// session-lifetime distribution, backend mix, warm-start fraction) into a
// reproducible set of session lifecycles, drives them open-loop against a
// router or single node over the ordinary HTTP API, and reports
// bucket-exact percentiles per stage (create / suggest / observe / close)
// plus sustained sessions/sec, ops/sec, and an error breakdown.
//
// The pipeline has two parts:
//
//   - Generate(Scenario) derives the sessions — every session's start
//     offset, backend, workload, iteration count, and seed —
//     deterministically from the scenario seed. The same scenario + seed
//     always yields the same sessions, so the scenario file is the whole
//     record of a run's load.
//   - Driver.Run(Scenario) drives them: an open-loop dispatcher releases
//     sessions at their arrival offsets (arrivals never wait for
//     completions — the generator does not slow down when the system
//     does), a worker pool of Scenario.Concurrency drives each session's
//     create → suggest/observe loop → close against Target, every request
//     carries the scenario's deadline, and latencies land in
//     obs.Histogram stage buckets so the report's p50/p99/p999 are exact
//     to bucket resolution. Slow requests keep their X-Relm-Trace IDs, so
//     any p999 outlier is explainable via GET /v1/traces on the serving
//     tier.
//
// cmd/relm-loadgen is the CLI; docs/LOADGEN.md documents the scenario
// schema and an annotated report.
package loadgen

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// Arrival processes.
const (
	ArrivalConstant = "constant" // evenly spaced: session i starts at i/rate
	ArrivalPoisson  = "poisson"  // exponential inter-arrivals with the given mean rate
	ArrivalRamp     = "ramp"     // rate climbs linearly from rate_per_sec to ramp_to_per_sec
)

// Lifetime distributions (number of suggest/observe iterations per session).
const (
	LifetimeFixed     = "fixed"     // every session runs round(mean) iterations
	LifetimeUniform   = "uniform"   // uniform on [min, max]
	LifetimeGeometric = "geometric" // geometric with the given mean, clamped to [min, max]
)

// Arrival declares when sessions start.
type Arrival struct {
	// Process is one of constant, poisson, ramp.
	Process string `json:"process"`
	// RatePerSec is the (initial) session arrival rate.
	RatePerSec float64 `json:"rate_per_sec"`
	// RampToPerSec is the final rate of a ramp (ignored otherwise).
	RampToPerSec float64 `json:"ramp_to_per_sec,omitempty"`
}

// Lifetime declares how long a session lives, in suggest/observe
// iterations.
type Lifetime struct {
	// Dist is one of fixed, uniform, geometric.
	Dist string `json:"dist"`
	// MeanIterations parameterizes fixed and geometric.
	MeanIterations float64 `json:"mean_iterations,omitempty"`
	// MinIterations / MaxIterations bound every distribution (uniform
	// draws between them). Defaults: 1 and 64.
	MinIterations int `json:"min_iterations,omitempty"`
	MaxIterations int `json:"max_iterations,omitempty"`
}

// Scenario is the declarative load-shape config (JSON on disk). Zero
// values select the defaults documented per field; Validate fills them
// in.
type Scenario struct {
	// Name labels the report.
	Name string `json:"name"`
	// Seed drives every random choice in generation. Same scenario + same
	// seed = identical sessions.
	Seed uint64 `json:"seed"`
	// Sessions is the total number of sessions in the load.
	Sessions int `json:"sessions"`
	// Arrival is the arrival process (default: constant at 10/sec).
	Arrival Arrival `json:"arrival"`
	// Lifetime is the session-lifetime distribution (default: fixed 4).
	Lifetime Lifetime `json:"lifetime"`
	// Backends maps backend kind (relm, bo, gbo, ddpg) to a selection
	// weight; weights need not sum to 1 (default: bo only).
	Backends map[string]float64 `json:"backends,omitempty"`
	// Workloads is the pool of workload names sessions draw from
	// uniformly (default: the paper's five Table 2 benchmarks).
	Workloads []string `json:"workloads,omitempty"`
	// Clusters is the pool of cluster names (default: ["A"]).
	Clusters []string `json:"clusters,omitempty"`
	// WarmFraction is the probability a bo/gbo session is created with a
	// warm-start request (fingerprint + default runtime attached).
	WarmFraction float64 `json:"warm_fraction,omitempty"`
	// Concurrency bounds the worker pool driving sessions (default 32).
	// Open-loop arrivals beyond it queue; queueing shows up as
	// sched.lag in the report rather than distorted arrival times.
	Concurrency int `json:"concurrency,omitempty"`
	// RequestTimeoutMS is the per-request deadline (default 10000).
	RequestTimeoutMS int `json:"request_timeout_ms,omitempty"`
}

// defaultWorkloads is the paper's Table 2 benchmark pool.
func defaultWorkloads() []string {
	return []string{"WordCount", "SortByKey", "K-means", "SVM", "PageRank"}
}

// validBackends is the set of service backend kinds a scenario may mix.
var validBackends = map[string]bool{"relm": true, "bo": true, "gbo": true, "ddpg": true}

// Validate checks the scenario and fills defaults in place.
func (s *Scenario) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("loadgen: scenario needs a name")
	}
	if s.Sessions <= 0 {
		return fmt.Errorf("loadgen: scenario %q: sessions must be > 0", s.Name)
	}
	if s.Arrival.Process == "" {
		s.Arrival.Process = ArrivalConstant
	}
	switch s.Arrival.Process {
	case ArrivalConstant, ArrivalPoisson, ArrivalRamp:
	default:
		return fmt.Errorf("loadgen: scenario %q: unknown arrival process %q (want constant, poisson, or ramp)", s.Name, s.Arrival.Process)
	}
	if s.Arrival.RatePerSec == 0 {
		s.Arrival.RatePerSec = 10
	}
	if s.Arrival.RatePerSec <= 0 {
		return fmt.Errorf("loadgen: scenario %q: rate_per_sec must be > 0", s.Name)
	}
	if s.Arrival.Process == ArrivalRamp {
		if s.Arrival.RampToPerSec <= 0 {
			return fmt.Errorf("loadgen: scenario %q: ramp needs ramp_to_per_sec > 0", s.Name)
		}
	} else if s.Arrival.RampToPerSec != 0 {
		return fmt.Errorf("loadgen: scenario %q: ramp_to_per_sec only applies to the ramp process", s.Name)
	}
	if s.Lifetime.Dist == "" {
		s.Lifetime.Dist = LifetimeFixed
	}
	switch s.Lifetime.Dist {
	case LifetimeFixed, LifetimeUniform, LifetimeGeometric:
	default:
		return fmt.Errorf("loadgen: scenario %q: unknown lifetime dist %q (want fixed, uniform, or geometric)", s.Name, s.Lifetime.Dist)
	}
	if s.Lifetime.MinIterations == 0 {
		s.Lifetime.MinIterations = 1
	}
	if s.Lifetime.MaxIterations == 0 {
		s.Lifetime.MaxIterations = 64
	}
	if s.Lifetime.MinIterations < 1 || s.Lifetime.MaxIterations < s.Lifetime.MinIterations {
		return fmt.Errorf("loadgen: scenario %q: bad iteration bounds [%d, %d]", s.Name, s.Lifetime.MinIterations, s.Lifetime.MaxIterations)
	}
	if s.Lifetime.MeanIterations == 0 {
		if s.Lifetime.Dist == LifetimeUniform {
			s.Lifetime.MeanIterations = float64(s.Lifetime.MinIterations+s.Lifetime.MaxIterations) / 2
		} else {
			s.Lifetime.MeanIterations = 4
		}
	}
	if s.Lifetime.MeanIterations < 1 {
		return fmt.Errorf("loadgen: scenario %q: mean_iterations must be >= 1", s.Name)
	}
	if len(s.Backends) == 0 {
		s.Backends = map[string]float64{"bo": 1}
	}
	total := 0.0
	for kind, w := range s.Backends {
		if !validBackends[kind] {
			return fmt.Errorf("loadgen: scenario %q: unknown backend %q (want relm, bo, gbo, ddpg)", s.Name, kind)
		}
		if w < 0 {
			return fmt.Errorf("loadgen: scenario %q: backend %q has negative weight", s.Name, kind)
		}
		total += w
	}
	if total <= 0 {
		return fmt.Errorf("loadgen: scenario %q: backend weights sum to zero", s.Name)
	}
	if len(s.Workloads) == 0 {
		s.Workloads = defaultWorkloads()
	}
	if len(s.Clusters) == 0 {
		s.Clusters = []string{"A"}
	}
	if s.WarmFraction < 0 || s.WarmFraction > 1 {
		return fmt.Errorf("loadgen: scenario %q: warm_fraction must be in [0, 1]", s.Name)
	}
	if s.Concurrency == 0 {
		s.Concurrency = 32
	}
	if s.Concurrency < 1 {
		return fmt.Errorf("loadgen: scenario %q: concurrency must be >= 1", s.Name)
	}
	if s.RequestTimeoutMS == 0 {
		s.RequestTimeoutMS = 10000
	}
	if s.RequestTimeoutMS < 1 {
		return fmt.Errorf("loadgen: scenario %q: request_timeout_ms must be >= 1", s.Name)
	}
	return nil
}

// RequestTimeout is the per-request deadline as a Duration.
func (s *Scenario) RequestTimeout() time.Duration {
	return time.Duration(s.RequestTimeoutMS) * time.Millisecond
}

// backendKinds returns the scenario's backend kinds in sorted order with
// cumulative normalized weights — map iteration order must never leak
// into the generated sessions.
func (s *Scenario) backendKinds() ([]string, []float64) {
	kinds := make([]string, 0, len(s.Backends))
	for k := range s.Backends {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	total := 0.0
	for _, k := range kinds {
		total += s.Backends[k]
	}
	cum := make([]float64, len(kinds))
	run := 0.0
	for i, k := range kinds {
		run += s.Backends[k] / total
		cum[i] = run
	}
	return kinds, cum
}

// LoadScenario reads and validates a scenario file.
func LoadScenario(path string) (*Scenario, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("loadgen: read scenario: %w", err)
	}
	var s Scenario
	if err := json.Unmarshal(buf, &s); err != nil {
		return nil, fmt.Errorf("loadgen: parse scenario %s: %w", path, err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}
