package store

import (
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

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
// first Load of a directory holding a snapshot of 50 sessions and 20 000
// observe records over 1-MiB segments. One op is one open, load and close;
// the bytes are those of the snapshot and the log.
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
	snap := &Snapshot{NextID: 50}
	for i := 0; i < 50; i++ {
		ss := SessionSnapshot{ID: fmt.Sprintf("sess-%d", i), State: "running"}
		for n := 0; n < 20; n++ {
			ss.History = append(ss.History, HistoryRecord{Observation: *testEvent(ss.ID, n).Obs, Objective: 100})
		}
		snap.Sessions = append(snap.Sessions, ss)
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

// BenchmarkDecodeEvent prices one observe record with stats, as json.Marshal
// writes it, through the log's reader and through json.Unmarshal.
func BenchmarkDecodeEvent(b *testing.B) {
	line, err := json.Marshal(&Event{Seq: 2, Type: EventObserve, ID: "sess-1", Time: time.Unix(1000, 0).UTC(), N: 3, Obs: &Observation{
		Config:     conf.Config{ContainersPerNode: 2, TaskConcurrency: 2, CacheCapacity: 0.6513305230104615, ShuffleCapacity: 0.1, NewRatio: 7, SurvivorRatio: 8},
		RuntimeSec: 737.2529482783447, GCOverhead: 0.0625,
		Stats: &profile.Stats{N: 2, MhMB: 2202, CPUAvg: 0.375, DiskAvg: 0.0670653293398664, MiMB: 96.92645626050263, McMB: 1258.94, MsMB: 7.2, MuMB: 353.34204269608165, P: 2, H: 0.828125, HadFullGC: true, CoresPerNode: 8},
	}})
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
		b.Run(c.name, func(b *testing.B) {
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
