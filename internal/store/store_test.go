package store

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"relm/internal/bo"
	"relm/internal/conf"
	"relm/internal/profile"
)

func testEvent(id string, n int) *Event {
	st := profile.Stats{CPUAvg: 0.5, MhMB: 4096, H: 0.9}
	return &Event{
		Type: EventObserve,
		ID:   id,
		Time: time.Unix(1000+int64(n), 0).UTC(),
		N:    n,
		Obs: &Observation{
			Config:     conf.Default(),
			RuntimeSec: 100 + float64(n),
			Stats:      &st,
		},
	}
}

// openStores returns one of each implementation over the same schema.
func openStores(t *testing.T) map[string]Store {
	t.Helper()
	fs, err := OpenFile(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Store{"file": fs, "mem": NewMem()}
}

func TestAppendLoadRoundTrip(t *testing.T) {
	for name, s := range openStores(t) {
		t.Run(name, func(t *testing.T) {
			defer s.Close()
			create := &Event{Type: EventCreate, ID: "sess-1", Spec: &SessionSpec{Backend: "bo", Workload: "PageRank", Seed: 7}}
			if seq, err := s.Append(create); err != nil || seq != 1 {
				t.Fatalf("append create: seq=%d err=%v", seq, err)
			}
			for n := 0; n < 3; n++ {
				if _, err := s.Append(testEvent("sess-1", n)); err != nil {
					t.Fatal(err)
				}
			}
			if s.Seq() != 4 {
				t.Fatalf("Seq = %d, want 4", s.Seq())
			}

			snap, events, err := s.Load()
			if err != nil {
				t.Fatal(err)
			}
			if snap != nil {
				t.Fatalf("unexpected snapshot before compaction: %+v", snap)
			}
			if len(events) != 4 {
				t.Fatalf("loaded %d events, want 4", len(events))
			}
			if events[0].Type != EventCreate || events[0].Spec.Workload != "PageRank" {
				t.Fatalf("create event mangled: %+v", events[0])
			}
			ob := events[2]
			if ob.N != 1 || ob.Obs == nil || ob.Obs.RuntimeSec != 101 || ob.Obs.Stats == nil || ob.Obs.Stats.H != 0.9 {
				t.Fatalf("observe event mangled: %+v", ob)
			}
			if ob.Obs.Config != conf.Default() {
				t.Fatalf("config mangled: %+v", ob.Obs.Config)
			}
		})
	}
}

func TestCompactKeepsEventsPastFence(t *testing.T) {
	for name, s := range openStores(t) {
		t.Run(name, func(t *testing.T) {
			defer s.Close()
			for n := 0; n < 6; n++ {
				if _, err := s.Append(testEvent("sess-1", n)); err != nil {
					t.Fatal(err)
				}
			}
			// Fence at 4: events 5 and 6 are not folded into the snapshot.
			snap := &Snapshot{
				TakenAt: time.Unix(2000, 0).UTC(),
				Fence:   4,
				NextID:  1,
				Repo:    &bo.Repository{Entries: []bo.RepoEntry{{Workload: "PageRank", ClusterName: "A"}}},
				Sessions: []SessionSnapshot{{
					ID:      "sess-1",
					Spec:    SessionSpec{Backend: "bo"},
					State:   "active",
					History: []HistoryRecord{{Observation: Observation{Config: conf.Default(), RuntimeSec: 100}, Objective: 100}},
				}},
			}
			if err := s.Compact(snap); err != nil {
				t.Fatal(err)
			}

			got, events, err := s.Load()
			if err != nil {
				t.Fatal(err)
			}
			if got == nil || got.Fence != 4 || len(got.Sessions) != 1 || got.Repo == nil || len(got.Repo.Entries) != 1 {
				t.Fatalf("snapshot mangled: %+v", got)
			}
			// Every event past the fence must survive; pre-fence events may
			// reappear (File never rewrites segments) — replay is idempotent
			// by contract.
			var past []uint64
			for _, ev := range events {
				if ev.Seq > 4 {
					past = append(past, ev.Seq)
				}
			}
			if len(past) != 2 || past[0] != 5 || past[1] != 6 {
				t.Fatalf("post-fence events = %v, want seqs 5,6", past)
			}

			// Appends continue past the compaction with increasing seqs.
			seq, err := s.Append(testEvent("sess-1", 6))
			if err != nil || seq != 7 {
				t.Fatalf("append after compact: seq=%d err=%v", seq, err)
			}
			if m := s.Metrics(); m.Snapshots != 1 {
				t.Fatalf("metrics after compact: %+v", m)
			}
		})
	}
}

// TestFileTornTailRecovered: a crash mid-append leaves a partial last line;
// recovery must keep every whole event and drop only the torn tail.
func TestFileTornTailRecovered(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < 3; n++ {
		if _, err := s.Append(testEvent("sess-1", n)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	wal := filepath.Join(dir, SegmentFileName(1))
	f, err := os.OpenFile(wal, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"seq":4,"type":"observe","id":"sess-1","obs":{"conf`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	_, events, err := s2.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 3 {
		t.Fatalf("recovered %d events, want 3", len(events))
	}
	// The next append must not collide with the torn event's would-be seq
	// predecessors: seq resumes from the last whole event.
	if seq, err := s2.Append(testEvent("sess-1", 3)); err != nil || seq != 4 {
		t.Fatalf("append after torn tail: seq=%d err=%v", seq, err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}

	// The torn fragment was truncated before the append, so the event
	// written after recovery survives the NEXT restart too (it must not
	// have been concatenated onto the fragment).
	s3, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	_, events, err = s3.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 4 || events[3].Seq != 4 {
		t.Fatalf("post-recovery append lost on second restart: %d events %+v", len(events), events)
	}
}

// TestFileReopenResumesSeq: reopening a store continues the sequence past
// both the snapshot fence and the surviving log.
func TestFileReopenResumesSeq(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < 4; n++ {
		if _, err := s.Append(testEvent("sess-1", n)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Compact(&Snapshot{Fence: 4}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if seq, err := s2.Append(testEvent("sess-1", 4)); err != nil || seq != 5 {
		t.Fatalf("seq after reopen = %d (err=%v), want 5", seq, err)
	}
	snap, events, err := s2.Load()
	if err != nil {
		t.Fatal(err)
	}
	if snap == nil || snap.Fence != 4 {
		t.Fatalf("snapshot lost across reopen: %+v", snap)
	}
	if len(events) == 0 || events[len(events)-1].Seq != 5 {
		t.Fatalf("events after reopen = %+v, want last seq 5", events)
	}
}

func TestClosedStoreRejectsWrites(t *testing.T) {
	for name, s := range openStores(t) {
		t.Run(name, func(t *testing.T) {
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Append(testEvent("sess-1", 0)); err == nil {
				t.Fatal("append after close succeeded")
			}
			if err := s.Compact(&Snapshot{}); err == nil {
				t.Fatal("compact after close succeeded")
			}
		})
	}
}
