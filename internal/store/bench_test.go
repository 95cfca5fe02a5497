package store

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"relm/internal/conf"
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
