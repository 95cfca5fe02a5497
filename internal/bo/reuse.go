package bo

import (
	"math"
	"time"

	"relm/internal/conf"
	"relm/internal/profile"
	"relm/internal/tune"
)

// PriorPoint is one observation carried over from a previous tuning session;
// it participates in the surrogate fit but costs no new experiment.
type PriorPoint struct {
	X   []float64
	Cfg conf.Config
	Y   float64
}

// RepoEntry is a persisted tuning session: the workload's fingerprint (the
// Table 6 statistics measured on the default configuration) plus the
// observations the optimizer collected. As the paper notes (Table 10), a BO
// "model" is its training data, so this is the entire saved state.
type RepoEntry struct {
	Workload    string
	ClusterName string
	Fingerprint profile.Stats
	// DefaultSec is the default-configuration runtime, used to rescale
	// observations between workloads of different magnitudes.
	DefaultSec float64
	Points     []PriorPoint

	// Lifecycle bookkeeping for capacity eviction: Hits counts warm-start
	// matches this entry served, AddedAt is when it was harvested, and
	// LastUsed is the later of AddedAt and its latest match. Zero values
	// (entries saved before this bookkeeping existed) rank as never used.
	Hits     uint64    `json:",omitempty"`
	AddedAt  time.Time `json:",omitzero"`
	LastUsed time.Time `json:",omitzero"`
}

// Repository implements the OtterTune-style model re-use of §6.6: workloads
// are matched by the distance between their performance fingerprints, and a
// matched workload's observations warm-start the optimizer. The paper notes
// (and this implementation inherits) that saved regression models cannot be
// adapted across hardware changes — Match refuses entries from a different
// cluster.
type Repository struct {
	Entries []RepoEntry
}

// Add stores a completed tuning session.
func (r *Repository) Add(workload, clusterName string, fp profile.Stats, defaultSec float64, history []tune.Sample) {
	e := RepoEntry{
		Workload:    workload,
		ClusterName: clusterName,
		Fingerprint: fp,
		DefaultSec:  defaultSec,
	}
	for _, s := range history {
		e.Points = append(e.Points, PriorPoint{
			X:   append([]float64(nil), s.X...),
			Cfg: s.Config,
			Y:   s.Objective,
		})
	}
	r.Entries = append(r.Entries, e)
}

// Touch records a warm-start match served by entry e at time now.
func (e *RepoEntry) Touch(now time.Time) {
	e.Hits++
	if now.After(e.LastUsed) {
		e.LastUsed = now
	}
}

// EvictDown removes the lowest-ranked entries until the repository holds at
// most capacity, returning the evicted entries. Ranking is LRU refined by
// usefulness: the least-recently-used entry goes first, ties broken by
// fewer hits, then by age (older first). capacity <= 0 means unbounded.
func (r *Repository) EvictDown(capacity int) []RepoEntry {
	if capacity <= 0 || len(r.Entries) <= capacity {
		return nil
	}
	worse := func(a, b *RepoEntry) bool {
		if !a.LastUsed.Equal(b.LastUsed) {
			return a.LastUsed.Before(b.LastUsed)
		}
		if a.Hits != b.Hits {
			return a.Hits < b.Hits
		}
		return a.AddedAt.Before(b.AddedAt)
	}
	var evicted []RepoEntry
	for len(r.Entries) > capacity {
		victim := 0
		for i := 1; i < len(r.Entries); i++ {
			if worse(&r.Entries[i], &r.Entries[victim]) {
				victim = i
			}
		}
		evicted = append(evicted, r.Entries[victim])
		r.Entries = append(r.Entries[:victim], r.Entries[victim+1:]...)
	}
	return evicted
}

// FingerprintDistance is the Euclidean distance between two Table 6
// fingerprints over the scale-free statistics (utilizations, pool fractions
// of heap, hit and spill ratios). Re-profiles of one workload land within
// ~0.05 of each other; different workload classes differ by 0.5 or more
// (a cache-heavy app and a shuffle-only app disagree on whole dimensions).
func FingerprintDistance(a, b profile.Stats) float64 {
	av, bv := FingerprintVector(a), FingerprintVector(b)
	var s float64
	for i := range av {
		d := av[i] - bv[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// FingerprintVector returns the scale-free fingerprint coordinates of a
// Table 6 statistics record (the space FingerprintDistance measures in);
// the repository inspection endpoint exposes it.
func FingerprintVector(st profile.Stats) []float64 {
	mh := st.MhMB
	if mh <= 0 {
		mh = 1
	}
	return []float64{
		st.CPUAvg,
		st.DiskAvg,
		st.MiMB / mh,
		st.McMB / mh,
		st.MsMB / mh,
		st.MuMB / mh,
		st.H,
		st.S,
	}
}

// RescaledPoints returns the entry's observations as prior points for a
// new session whose default-configuration runtime is defaultSec:
// objectives are multiplied by the ratio of default runtimes, bridging
// workload-magnitude differences; the scale is 1 when either runtime is
// unknown.
func (e *RepoEntry) RescaledPoints(defaultSec float64) []PriorPoint {
	scale := 1.0
	if e.DefaultSec > 0 && defaultSec > 0 {
		scale = defaultSec / e.DefaultSec
	}
	points := make([]PriorPoint, 0, len(e.Points))
	for _, p := range e.Points {
		points = append(points, PriorPoint{X: p.X, Cfg: p.Cfg, Y: p.Y * scale})
	}
	return points
}

// Match returns the closest same-cluster entry and its distance; ok is false
// when the repository holds no candidate within maxDistance.
func (r *Repository) Match(clusterName string, fp profile.Stats, maxDistance float64) (*RepoEntry, float64, bool) {
	var best *RepoEntry
	bestD := math.Inf(1)
	for i := range r.Entries {
		e := &r.Entries[i]
		if e.ClusterName != clusterName {
			continue // saved models do not transfer across hardware (§6.6)
		}
		if d := FingerprintDistance(e.Fingerprint, fp); d < bestD {
			best, bestD = e, d
		}
	}
	if best == nil || bestD > maxDistance {
		return nil, bestD, false
	}
	return best, bestD, true
}

// RunWithReuse is an auto session of the tuning service run offline, step
// for step: profile the workload once on the default configuration, match
// the fingerprint against the repository, warm-start the optimizer from a
// hit (Tuner.WarmStart, with the entry's observations rescaled by the ratio
// of default runtimes), show it the fingerprinting run — a real experiment
// — and drive it to its stopping rule. The completed session is added to
// the repository either way; the flag reports whether a model was re-used.
func RunWithReuse(ev *tune.Evaluator, opts Options, repo *Repository, maxDistance float64) (Result, bool) {
	s := ev.Eval(ev.Space.Default())
	// An aborted default run still fingerprints the workload: its profile
	// covers the portion that ran.
	fp := profile.Generate(s.Profile)

	t := NewTuner(ev.Space, opts, nil, nil)
	entry, _, reused := repo.Match(ev.Cluster.Name, fp, maxDistance)
	if reused {
		t.WarmStart(entry.RescaledPoints(s.RuntimeSec))
	}
	t.Observe(s)
	tune.Drive(t, ev, 0)

	repo.Add(ev.Workload.Name, ev.Cluster.Name, fp, s.RuntimeSec, ev.History())
	return t.Result(), reused
}
