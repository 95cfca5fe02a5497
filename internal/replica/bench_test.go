package replica_test

import (
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"relm/internal/replica"
	"relm/internal/store"
)

// BenchmarkReplicaShipIngest is the follower's hot path: one offset-checked
// fsynced append of a 64 KiB shipped chunk.
func BenchmarkReplicaShipIngest(b *testing.B) {
	s, err := replica.New(replica.Options{Self: "b", Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	chunk := []byte(strings.Repeat("x", 64<<10))
	b.SetBytes(int64(len(chunk)))
	b.ResetTimer()
	var off int64
	for i := 0; i < b.N; i++ {
		size, err := s.Ingest("a", 1, off, 0, chunk)
		if err != nil {
			b.Fatal(err)
		}
		off = size
	}
}

// BenchmarkReplicaShipTail is the shipper's steady state: one WAL append
// on the primary, then a full ship cycle (status fetch + tail chunk over
// HTTP to a real follower handler) that ships just the delta.
func BenchmarkReplicaShipTail(b *testing.B) {
	follower, err := replica.New(replica.Options{Self: "b", Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer follower.Close()
	srv := httptest.NewServer(replica.Handler(follower, "b"))
	defer srv.Close()

	primary, err := store.OpenFile(b.TempDir(), store.FileOptions{SegmentBytes: 64 << 20})
	if err != nil {
		b.Fatal(err)
	}
	defer primary.Close()
	set, err := replica.New(replica.Options{
		Self:     "a",
		Peers:    []replica.Peer{{Name: "b", URL: srv.URL}},
		Source:   primary,
		Interval: time.Hour, // dormant loop; the benchmark drives cycles
	})
	if err != nil {
		b.Fatal(err)
	}
	defer set.Close()

	pad := strings.Repeat("x", 4<<10)
	ev := &store.Event{Type: store.EventClose, ID: pad, Time: time.Unix(0, 0).UTC()}
	if _, err := primary.Append(ev); err != nil {
		b.Fatal(err)
	}
	if err := set.SyncNow(); err != nil {
		b.Fatal(err) // catch-up outside the timed loop
	}
	b.SetBytes(int64(4 << 10))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := primary.Append(ev); err != nil {
			b.Fatal(err)
		}
		if err := set.SyncNow(); err != nil {
			b.Fatal(err)
		}
	}
}
