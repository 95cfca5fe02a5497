package obs

import (
	"math"
	"sync"
	"testing"
	"time"
)

func TestBucketOf(t *testing.T) {
	cases := []struct {
		ns   uint64
		want int
	}{
		{0, 0},
		{1, 1},
		{2, 2},
		{3, 2},
		{4, 3},
		{1023, 10},
		{1024, 11},
		{math.MaxUint64, NumBuckets - 1},
	}
	for _, c := range cases {
		if got := bucketOf(c.ns); got != c.want {
			t.Errorf("bucketOf(%d) = %d, want %d", c.ns, got, c.want)
		}
	}
}

func TestHistogramRecordSnapshot(t *testing.T) {
	h := NewHistogram()
	h.Record(0)
	h.Record(100 * time.Nanosecond)
	h.Record(100 * time.Microsecond)
	h.Record(-5) // clamps to zero
	s := h.Snapshot()
	if s.Count != 4 {
		t.Fatalf("count = %d, want 4", s.Count)
	}
	if want := uint64(100 + 100_000); s.SumNs != want {
		t.Fatalf("sum = %d, want %d", s.SumNs, want)
	}
	if s.Buckets[0] != 2 {
		t.Fatalf("bucket 0 = %d, want 2 (zero + clamped negative)", s.Buckets[0])
	}
}

func TestHistogramNilSafe(t *testing.T) {
	var h *Histogram
	h.Record(time.Second) // must not panic
	h.RecordNs(5)
	s := h.Snapshot()
	if s.Count != 0 {
		t.Fatalf("nil histogram snapshot count = %d", s.Count)
	}
	if got := s.Quantile(0.99); got != 0 {
		t.Fatalf("empty quantile = %v, want 0", got)
	}
}

func TestQuantileWithinBucketBounds(t *testing.T) {
	h := NewHistogram()
	// 1000 samples at exactly 1µs: all land in bucket covering [512,1023].
	for i := 0; i < 1000; i++ {
		h.Record(time.Microsecond)
	}
	s := h.Snapshot()
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		v := s.Quantile(q)
		if v < 512 || v > 1023 {
			t.Errorf("q=%v: %v outside landing bucket [512,1023]", q, v)
		}
	}
	if m := s.MeanNs(); m != 1000 {
		t.Errorf("mean = %v, want 1000", m)
	}
}

func TestQuantileOrdering(t *testing.T) {
	h := NewHistogram()
	for i := 1; i <= 10_000; i++ {
		h.RecordNs(int64(i))
	}
	s := h.Snapshot()
	p50, p90, p99 := s.Quantile(0.5), s.Quantile(0.9), s.Quantile(0.99)
	if !(p50 <= p90 && p90 <= p99) {
		t.Fatalf("quantiles not monotone: p50=%v p90=%v p99=%v", p50, p90, p99)
	}
	// Power-of-two buckets bound the error by 2x; check the right decade.
	if p50 < 2500 || p50 > 10_000 {
		t.Errorf("p50 = %v, expected within 2x of 5000", p50)
	}
}

func TestSnapshotMerge(t *testing.T) {
	a, b := NewHistogram(), NewHistogram()
	for i := 0; i < 100; i++ {
		a.RecordNs(100)
		b.RecordNs(100_000)
	}
	sa, sb := a.Snapshot(), b.Snapshot()
	sa.Merge(sb)
	if sa.Count != 200 {
		t.Fatalf("merged count = %d, want 200", sa.Count)
	}
	if want := uint64(100*100 + 100*100_000); sa.SumNs != want {
		t.Fatalf("merged sum = %d, want %d", sa.SumNs, want)
	}
	// Half the mass is at ~100ns, half at ~100µs: p90 must land high.
	if p90 := sa.Quantile(0.90); p90 < 60_000 {
		t.Errorf("merged p90 = %v, want >= 60000", p90)
	}
}

// TestHistogramConcurrentRecordRead is the satellite race test: 64
// goroutines hammer Record while the main goroutine reads percentiles.
// Run under -race this proves the lock-free design is sound.
func TestHistogramConcurrentRecordRead(t *testing.T) {
	h := NewHistogram()
	const writers = 64
	const perWriter = 2000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(writers)
	for w := 0; w < writers; w++ {
		go func(seed int64) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				h.RecordNs(seed + int64(i))
			}
		}(int64(w + 1))
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := h.Snapshot()
			_ = s.Quantile(0.5)
			_ = s.Quantile(0.99)
			_ = s.Quantile(0.999)
			_ = s.MeanNs()
		}
	}()
	wg.Wait()
	close(stop)
	<-done
	s := h.Snapshot()
	if want := uint64(writers * perWriter); s.Count != want {
		t.Fatalf("final count = %d, want %d", s.Count, want)
	}
}

func TestSummarize(t *testing.T) {
	h := NewHistogram()
	for i := 0; i < 1000; i++ {
		h.Record(time.Millisecond)
	}
	sum := h.Snapshot().Summarize()
	if sum.Count != 1000 {
		t.Fatalf("count = %d", sum.Count)
	}
	if sum.MeanUs != 1000 {
		t.Errorf("mean_us = %v, want 1000", sum.MeanUs)
	}
	if sum.P99Us < 500 || sum.P99Us > 2100 {
		t.Errorf("p99_us = %v, expected within 2x of 1000", sum.P99Us)
	}
}

// TestHistogramRecordAllocations: Record sits on every instrumented hot
// path (suggest, observe, WAL append, router pick), so it must never
// allocate — shard choice, bucket lookup and the three atomic adds included.
func TestHistogramRecordAllocations(t *testing.T) {
	h := NewHistogram()
	d := time.Microsecond
	if got := testing.AllocsPerRun(1000, func() { h.Record(d); d += 37 }); got != 0 {
		t.Errorf("Histogram.Record: %v allocs/op, want 0", got)
	}
}

func BenchmarkObsHistogramRecord(b *testing.B) {
	h := NewHistogram()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		var ns int64
		for pb.Next() {
			ns += 37
			h.RecordNs(ns)
		}
	})
}
