package store

import (
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"relm/internal/bo"
	"relm/internal/conf"
	"relm/internal/profile"
)

// BenchmarkStoreAppendParallel measures WAL append throughput across
// durability modes and concurrency levels — the hot path under heavy
// /v1/observe traffic. fsync=on is the group-committed path, which
// amortizes one disk flush across concurrent appenders; fsync=off flushes
// to the OS only. One op is one durable Append.
func BenchmarkStoreAppendParallel(b *testing.B) {
	modes := []struct {
		name string
		opts FileOptions
	}{
		{"fsync=off", FileOptions{}},
		{"fsync=on", FileOptions{SyncEachAppend: true}},
	}
	for _, mode := range modes {
		for _, goroutines := range []int{1, 8, 64} {
			b.Run(fmt.Sprintf("%s/goroutines=%d", mode.name, goroutines), func(b *testing.B) {
				s, err := OpenFile(b.TempDir(), mode.opts)
				if err != nil {
					b.Fatal(err)
				}
				defer s.Close()
				ev := &Event{
					Type: EventObserve,
					ID:   "sess-1",
					Time: time.Unix(1000, 0).UTC(),
					Obs:  &Observation{Config: conf.Default(), RuntimeSec: 100},
				}
				b.ReportAllocs()
				b.ResetTimer()
				var next atomic.Int64
				var wg sync.WaitGroup
				errs := make(chan error, goroutines)
				for g := 0; g < goroutines; g++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						local := *ev // events are mutated (Seq); one per goroutine
						for next.Add(1) <= int64(b.N) {
							if _, err := s.Append(&local); err != nil {
								errs <- err
								return
							}
						}
					}()
				}
				wg.Wait()
				b.StopTimer()
				close(errs)
				for err := range errs {
					b.Fatal(err)
				}
			})
		}
	}
}

// BenchmarkOpenAndLoad measures a node start's read side: OpenFile and the
// first Load of a directory holding a snapshot of 50 sessions and a
// repository of 16 models of 20 points each, and 20 000 observe records
// over 1-MiB segments. One op is one open, load and close; the bytes are
// those of the snapshot and the log.
func BenchmarkOpenAndLoad(b *testing.B) {
	dir := b.TempDir()
	s, err := OpenFile(dir, FileOptions{SegmentBytes: 1 << 20})
	if err != nil {
		b.Fatal(err)
	}
	const records = 20_000
	for i := 0; i < records; i++ {
		if _, err := s.Append(testEvent(fmt.Sprintf("sess-%d", i%50), i/50)); err != nil {
			b.Fatal(err)
		}
	}
	snap := &Snapshot{NextID: 50, Repo: &bo.Repository{}}
	for i := 0; i < 50; i++ {
		ss := SessionSnapshot{ID: fmt.Sprintf("sess-%d", i), State: "running"}
		for n := 0; n < 20; n++ {
			ss.History = append(ss.History, HistoryRecord{Observation: *testEvent(ss.ID, n).Obs, Objective: 100})
		}
		snap.Sessions = append(snap.Sessions, ss)
	}
	for i := 0; i < 16; i++ {
		snap.Repo.Entries = append(snap.Repo.Entries, bo.RepoEntry{
			Workload: fmt.Sprintf("w-%d", i), ClusterName: "A", Fingerprint: benchStats, DefaultSec: 737.2529482783447,
			Points: benchPoints(20), Hits: 3, AddedAt: time.Unix(1000, 0).UTC(), LastUsed: time.Unix(2000, 0).UTC(),
		})
	}
	if err := s.Compact(snap); err != nil {
		b.Fatal(err)
	}
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
	m := s.Metrics()
	b.SetBytes(m.WALBytes + m.SnapshotBytes)
	b.ReportAllocs()
	for b.Loop() {
		s, err := OpenFile(dir)
		if err != nil {
			b.Fatal(err)
		}
		_, events, err := s.Load()
		if err != nil || len(events) != records {
			b.Fatalf("loaded %d events, err %v; want %d", len(events), err, records)
		}
		if err := s.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

var (
	benchConfig = conf.Config{ContainersPerNode: 2, TaskConcurrency: 2, CacheCapacity: 0.6513305230104615, ShuffleCapacity: 0.1, NewRatio: 7, SurvivorRatio: 8}
	benchStats  = profile.Stats{N: 2, MhMB: 2202, CPUAvg: 0.375, DiskAvg: 0.0670653293398664, MiMB: 96.92645626050263, McMB: 1258.94, MsMB: 7.2, MuMB: 353.34204269608165, P: 2, H: 0.828125, HadFullGC: true, CoresPerNode: 8}
)

// benchPoints is n prior points of four coordinates each.
func benchPoints(n int) []bo.PriorPoint {
	points := make([]bo.PriorPoint, n)
	for i := range points {
		points[i] = bo.PriorPoint{X: []float64{0.125 * float64(i%8), 1.0 / float64(i+3), 0.7074476741299546, 0.75}, Cfg: benchConfig, Y: 737.2529482783447 + float64(i)}
	}
	return points
}

// BenchmarkDecodeEvent prices one record, as json.Marshal writes it,
// through the log's reader and through json.Unmarshal: an observe with
// stats, and a create of a warm-started session with eight prior points.
func BenchmarkDecodeEvent(b *testing.B) {
	at := time.Unix(1000, 0).UTC()
	stats := benchStats
	for _, rec := range []struct {
		name string
		ev   *Event
	}{
		{"observe", &Event{Seq: 2, Type: EventObserve, ID: "sess-1", Time: at, N: 3, Obs: &Observation{
			Config: benchConfig, RuntimeSec: 737.2529482783447, GCOverhead: 0.0625, Stats: &stats,
		}}},
		{"create", &Event{Seq: 1, Type: EventCreate, ID: "sess-1", Time: at, Session: &SessionSnapshot{
			ID: "sess-1", State: "active", Created: at, LastUsed: at,
			Spec: SessionSpec{Backend: "gbo", Workload: "K-means", Mode: "remote", Seed: 7, WarmStart: true, Stats: &stats, DefaultRuntimeSec: 737.2529482783447},
			Warm: &Warm{Source: "SVM", Cluster: "A", Distance: 0.0625, Points: benchPoints(8)},
		}}},
	} {
		line, err := json.Marshal(rec.ev)
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range []struct {
			name   string
			decode func([]byte, *Event) error
		}{
			{"reader", decodeEvent},
			{"json.Unmarshal", func(line []byte, ev *Event) error { return json.Unmarshal(line, ev) }},
		} {
			b.Run(rec.name+"/"+c.name, func(b *testing.B) {
				b.SetBytes(int64(len(line)))
				b.ReportAllocs()
				var ev Event
				for b.Loop() {
					if err := c.decode(line, &ev); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
