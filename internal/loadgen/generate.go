package loadgen

import (
	"math"
	"math/rand/v2"
)

// TraceSession is one session of the load: when it starts (offset from
// run start), what it creates, and how long it lives. IDs are not part of
// it — the driver derives the wire ID from its run ID plus Index, so one
// scenario can be driven many times against a durable cluster without
// session-ID collisions.
type TraceSession struct {
	Index    int
	AtNs     int64
	Backend  string
	Workload string
	Cluster  string
	Seed     uint64
	// Iters is the number of suggest/observe rounds the driver attempts;
	// a backend reporting done earlier (relm's short pipeline) ends the
	// loop early and is not an error.
	Iters int
	Warm  bool
}

// Generate validates the scenario and derives its sessions, sorted by
// AtNs, deterministically from Scenario.Seed. All randomness flows through
// one PCG stream in a fixed visitation order, so the same scenario + seed
// always yields the same sessions.
func Generate(sc *Scenario) ([]TraceSession, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewPCG(sc.Seed, sc.Seed^0x9e3779b97f4a7c15))
	kinds, cum := sc.backendKinds()

	sessions := make([]TraceSession, sc.Sessions)
	atNs := int64(0)
	for i := range sessions {
		if i > 0 {
			atNs += interArrivalNs(sc, rng, i)
		}
		kind := kinds[len(kinds)-1]
		u := rng.Float64()
		for j, c := range cum {
			if u < c {
				kind = kinds[j]
				break
			}
		}
		warm := false
		if kind == "bo" || kind == "gbo" {
			warm = rng.Float64() < sc.WarmFraction
		}
		sessions[i] = TraceSession{
			Index:    i,
			AtNs:     atNs,
			Backend:  kind,
			Workload: sc.Workloads[rng.IntN(len(sc.Workloads))],
			Cluster:  sc.Clusters[rng.IntN(len(sc.Clusters))],
			Seed:     rng.Uint64(),
			Iters:    sampleIters(sc, rng),
			Warm:     warm,
		}
	}
	return sessions, nil
}

// interArrivalNs samples the gap before session i (i >= 1).
func interArrivalNs(sc *Scenario, rng *rand.Rand, i int) int64 {
	switch sc.Arrival.Process {
	case ArrivalPoisson:
		// Exponential inter-arrival with mean 1/rate. 1-U keeps the
		// argument in (0, 1] so Log never sees zero.
		gap := -math.Log(1-rng.Float64()) / sc.Arrival.RatePerSec
		return int64(gap * 1e9)
	case ArrivalRamp:
		// The instantaneous rate climbs linearly across the sessions; the
		// gap before session i uses the rate at that point of the ramp.
		frac := 0.0
		if sc.Sessions > 1 {
			frac = float64(i) / float64(sc.Sessions-1)
		}
		rate := sc.Arrival.RatePerSec + frac*(sc.Arrival.RampToPerSec-sc.Arrival.RatePerSec)
		return int64(1e9 / rate)
	default: // constant
		return int64(1e9 / sc.Arrival.RatePerSec)
	}
}

// sampleIters draws one session's iteration count from the lifetime
// distribution, clamped to [MinIterations, MaxIterations].
func sampleIters(sc *Scenario, rng *rand.Rand) int {
	lt := sc.Lifetime
	var n int
	switch lt.Dist {
	case LifetimeUniform:
		n = lt.MinIterations + rng.IntN(lt.MaxIterations-lt.MinIterations+1)
	case LifetimeGeometric:
		// Geometric on {1, 2, ...} with mean m: success probability 1/m.
		p := 1 / lt.MeanIterations
		if p >= 1 {
			n = 1
		} else {
			n = 1 + int(math.Floor(math.Log(1-rng.Float64())/math.Log(1-p)))
		}
	default: // fixed
		n = int(math.Round(lt.MeanIterations))
	}
	if n < lt.MinIterations {
		n = lt.MinIterations
	}
	if n > lt.MaxIterations {
		n = lt.MaxIterations
	}
	return n
}
