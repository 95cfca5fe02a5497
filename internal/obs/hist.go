// Package obs is the observability layer shared by the service, store,
// replica, and router subsystems: zero-allocation latency histograms
// recorded at every hot stage, a per-node request tracer propagating
// X-Relm-Trace across router/backend/replica hops, the printf-hook adapter
// onto log/slog, and Prometheus text exposition for all of it.
//
// The histogram is built for the hottest paths in the repository (WAL
// append, GP append, suggest/observe): Record is a few atomic adds on a
// randomly chosen shard — no locks, no allocation, no time formatting —
// so instrumentation can stay on permanently without moving the
// benchmark gates.
package obs

import (
	"math"
	"math/bits"
	"math/rand/v2"
	"sync/atomic"
	"time"
)

// NumBuckets is the fixed bucket count: one bucket per power of two of
// nanoseconds. Bucket 0 holds 0ns, bucket b (b >= 1) holds durations in
// [2^(b-1), 2^b) ns; the last bucket absorbs everything above ~73 years,
// i.e. it is effectively +Inf.
const NumBuckets = 64

// histShards stripes the counters to keep concurrent recorders off each
// other's cache lines. Must be a power of two.
const histShards = 8

// histShard is one stripe of a Histogram. The bucket array is updated
// with plain atomic adds; count/sum ride along for mean extraction.
type histShard struct {
	buckets [NumBuckets]atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Uint64
	// Pad the trailing counters onto their own cache line so two shards
	// never share one.
	_ [48]byte
}

// Histogram is a fixed-bucket, power-of-two latency histogram. The zero
// value is ready to use; a nil *Histogram is a valid no-op receiver, so
// instrumented code paths need no "is observability on" branching.
type Histogram struct {
	shards [histShards]histShard
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// bucketOf maps a non-negative nanosecond duration onto its bucket.
func bucketOf(ns uint64) int {
	b := bits.Len64(ns)
	if b >= NumBuckets {
		return NumBuckets - 1
	}
	return b
}

// Record adds one duration. Nil-safe; negative durations count as zero.
func (h *Histogram) Record(d time.Duration) {
	if h == nil {
		return
	}
	h.RecordNs(int64(d))
}

// RecordNs is Record for a raw nanosecond count.
func (h *Histogram) RecordNs(ns int64) {
	if h == nil {
		return
	}
	if ns < 0 {
		ns = 0
	}
	// rand/v2's top-level generators are per-goroutine and allocation
	// free, so shard choice adds no contention of its own.
	sh := &h.shards[rand.Uint64()&(histShards-1)]
	sh.buckets[bucketOf(uint64(ns))].Add(1)
	sh.count.Add(1)
	sh.sum.Add(uint64(ns))
}

// Snapshot folds the shards into one consistent-enough view. Individual
// bucket reads are atomic; a snapshot taken during concurrent recording
// may be mid-update across buckets, which is fine for monitoring.
func (h *Histogram) Snapshot() Snapshot {
	var s Snapshot
	if h == nil {
		return s
	}
	for i := range h.shards {
		sh := &h.shards[i]
		for b := range sh.buckets {
			s.Buckets[b] += sh.buckets[b].Load()
		}
		s.Count += sh.count.Load()
		s.SumNs += sh.sum.Load()
	}
	return s
}

// Snapshot is a point-in-time copy of a Histogram — plain values, safe to
// merge across nodes (the router sums per-node snapshots bucket-wise to
// get exact cluster-wide percentiles).
type Snapshot struct {
	Buckets [NumBuckets]uint64
	Count   uint64
	SumNs   uint64
}

// Merge adds another snapshot into this one.
func (s *Snapshot) Merge(o Snapshot) {
	for b := range s.Buckets {
		s.Buckets[b] += o.Buckets[b]
	}
	s.Count += o.Count
	s.SumNs += o.SumNs
}

// BucketUpperNs is bucket b's inclusive upper bound in nanoseconds; the
// last bucket reports +Inf.
func BucketUpperNs(b int) float64 {
	if b >= NumBuckets-1 {
		return math.Inf(1)
	}
	return float64(uint64(1)<<uint(b)) - 1
}

// MeanNs is the mean recorded duration in nanoseconds (0 when empty).
func (s Snapshot) MeanNs() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.SumNs) / float64(s.Count)
}

// Quantile extracts the q-th quantile (0 < q <= 1) in nanoseconds,
// linearly interpolated within the landing bucket. Returns 0 when the
// histogram is empty.
func (s Snapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	var cum float64
	for b := range s.Buckets {
		n := float64(s.Buckets[b])
		if n == 0 {
			continue
		}
		if cum+n >= rank {
			lo, hi := bucketBoundsNs(b)
			frac := (rank - cum) / n
			return lo + frac*(hi-lo)
		}
		cum += n
	}
	lo, hi := bucketBoundsNs(NumBuckets - 1)
	_ = hi
	return lo
}

// bucketBoundsNs returns bucket b's interpolation bounds. The top bucket
// has no finite upper bound; clamp it to twice its lower bound so
// quantiles stay finite.
func bucketBoundsNs(b int) (lo, hi float64) {
	if b == 0 {
		return 0, 0
	}
	lo = float64(uint64(1) << uint(b-1))
	hi = float64(uint64(1)<<uint(b)) - 1
	if b == NumBuckets-1 {
		hi = 2 * lo
	}
	return lo, hi
}

// Summary is the ready-to-serve percentile digest of one stage.
type Summary struct {
	Count  uint64  `json:"count"`
	MeanUs float64 `json:"mean_us"`
	P50Us  float64 `json:"p50_us"`
	P90Us  float64 `json:"p90_us"`
	P99Us  float64 `json:"p99_us"`
	P999Us float64 `json:"p999_us"`
}

// Summarize digests a snapshot into microsecond percentiles.
func (s Snapshot) Summarize() Summary {
	const us = 1e3
	return Summary{
		Count:  s.Count,
		MeanUs: s.MeanNs() / us,
		P50Us:  s.Quantile(0.50) / us,
		P90Us:  s.Quantile(0.90) / us,
		P99Us:  s.Quantile(0.99) / us,
		P999Us: s.Quantile(0.999) / us,
	}
}
