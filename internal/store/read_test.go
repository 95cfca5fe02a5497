package store

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"relm/internal/conf"
)

// TestTornTailMatchesParentAtEveryCut reads every prefix of a small
// segment (four records and a blank line, testdata/torn-segment.jsonl) as
// the active and as a sealed segment, and holds each answer to the one in
// testdata/torn-segment-answers.json: the events kept and their size read
// as active, and whether the read fails as sealed. The answers were written
// by the line-scanner reader this one replaced — never regenerate them from
// a newer build.
func TestTornTailMatchesParentAtEveryCut(t *testing.T) {
	seg, err := os.ReadFile("testdata/torn-segment.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile("testdata/torn-segment-answers.json")
	if err != nil {
		t.Fatal(err)
	}
	var answers []struct {
		Cut       int      `json:"cut"`
		Seqs      []uint64 `json:"seqs"`
		Size      int64    `json:"size"`
		SealedErr bool     `json:"sealed_err"`
	}
	if err := json.Unmarshal(raw, &answers); err != nil {
		t.Fatal(err)
	}
	if len(answers) != len(seg)+1 {
		t.Fatalf("%d answers for a %d-byte segment, want one per cut", len(answers), len(seg))
	}
	for _, a := range answers {
		events, size, err := decodeSegment(seg[:a.Cut], true)
		seqs := []uint64{}
		for _, ev := range events {
			seqs = append(seqs, ev.Seq)
		}
		if err != nil || size != a.Size || !slices.Equal(seqs, a.Seqs) {
			t.Errorf("cut %d as active: seqs %v size %d err %v, want seqs %v size %d", a.Cut, seqs, size, err, a.Seqs, a.Size)
		}
		if _, _, err := decodeSegment(seg[:a.Cut], false); (err != nil) != a.SealedErr {
			t.Errorf("cut %d as sealed: err %v, want an error: %v", a.Cut, err, a.SealedErr)
		}
	}
}

// TestLargeRecordReopens: a record the log accepted is one it reads back,
// however long its line. One create record of ~18 MB, then a small one;
// at the default segment size the large record seals its segment, at a
// large one both stay in the active segment. Either way the reopen keeps
// every byte and both records.
func TestLargeRecordReopens(t *testing.T) {
	history := make([]HistoryRecord, 100_000)
	for i := range history {
		sec := 100 + float64(i)/3
		history[i] = HistoryRecord{Observation: Observation{Config: conf.Default(), RuntimeSec: sec}, Objective: sec}
	}
	big := &Event{Type: EventCreate, ID: "sess-1", Session: &SessionSnapshot{ID: "sess-1", State: "running", History: history}}
	for _, tc := range []struct {
		name         string
		segmentBytes int64
		segments     int
	}{
		{"sealed", 0, 2},
		{"active", 1 << 30, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			opts := FileOptions{SegmentBytes: tc.segmentBytes}
			s, err := OpenFile(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Append(big); err != nil {
				t.Fatal(err)
			}
			appendN(t, s, 1)
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			written := s.Metrics()
			if written.WALBytes <= 1<<24 {
				t.Fatalf("the log holds %d bytes; the large record must outgrow 16 MiB", written.WALBytes)
			}

			s2, err := OpenFile(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer s2.Close()
			if m := s2.Metrics(); m.WALBytes != written.WALBytes || m.Segments != tc.segments {
				t.Fatalf("reopened: %d bytes in %d segments, want %d bytes in %d", m.WALBytes, m.Segments, written.WALBytes, tc.segments)
			}
			_, events, err := s2.Load()
			if err != nil {
				t.Fatal(err)
			}
			if len(events) != 2 || events[0].Session == nil || len(events[0].Session.History) != len(history) || events[1].Seq != 2 {
				t.Fatalf("reopened: %d events, want the large record and the one after it", len(events))
			}
		})
	}
}

// TestFirstLoadIsTheOpenScan: the first Load after OpenFile hands over what
// the open decoded — equal to a fresh read of the directory, and blind to a
// change made on disk behind the store's back — while an Append or a
// Compact before it, and every Load after it, read the directory.
func TestFirstLoadIsTheOpenScan(t *testing.T) {
	opts := FileOptions{SegmentBytes: 1024}
	// build leaves a snapshot, sealed segments and a torn active tail.
	build := func(t *testing.T) string {
		dir := t.TempDir()
		s, err := OpenFile(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		appendN(t, s, 10)
		if err := s.Compact(&Snapshot{Fence: 4, NextID: 3}); err != nil {
			t.Fatal(err)
		}
		appendN(t, s, 10)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		segs := walFiles(t, dir)
		if len(segs) < 2 {
			t.Fatalf("%d segments, want sealed ones too", len(segs))
		}
		f, err := os.OpenFile(filepath.Join(dir, segs[len(segs)-1]), os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteString(`{"seq":99,"type":"obs`); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	open := func(t *testing.T, dir string) *File {
		s, err := OpenFile(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		return s
	}
	load := func(t *testing.T, s *File) (*Snapshot, []Event) {
		snap, events, err := s.Load()
		if err != nil {
			t.Fatal(err)
		}
		return snap, events
	}

	t.Run("equals a fresh read", func(t *testing.T) {
		s := open(t, build(t))
		snap, events := load(t, s)
		again, fresh := load(t, s)
		if snap == nil || snap.Fence != 4 || len(events) == 0 {
			t.Fatalf("first load: snapshot %+v and %d events, want fence 4 and the log", snap, len(events))
		}
		if !reflect.DeepEqual(snap, again) || !reflect.DeepEqual(events, fresh) {
			t.Fatalf("first load differs from a read of the directory:\n%+v %d events\n%+v %d events", snap, len(events), again, len(fresh))
		}
	})
	t.Run("later loads read the directory", func(t *testing.T) {
		dir := build(t)
		s := open(t, dir)
		if err := AtomicWriteFile(filepath.Join(dir, snapshotFile), []byte(`{"fence":77}`)); err != nil {
			t.Fatal(err)
		}
		if snap, _ := load(t, s); snap.Fence != 4 {
			t.Fatalf("first load: fence %d, want 4, what the open read", snap.Fence)
		}
		if snap, _ := load(t, s); snap.Fence != 77 {
			t.Fatalf("second load: fence %d, want 77, what the directory holds now", snap.Fence)
		}
	})
	t.Run("append before load", func(t *testing.T) {
		s := open(t, build(t))
		seq, err := s.Append(testEvent("sess-2", 0))
		if err != nil {
			t.Fatal(err)
		}
		if _, events := load(t, s); events[len(events)-1].Seq != seq {
			t.Fatalf("load after an append ends at seq %d, want %d", events[len(events)-1].Seq, seq)
		}
	})
	t.Run("compact before load", func(t *testing.T) {
		s := open(t, build(t))
		if err := s.Compact(&Snapshot{Fence: 5, NextID: 9}); err != nil {
			t.Fatal(err)
		}
		if snap, _ := load(t, s); snap.NextID != 9 {
			t.Fatalf("load after a compaction: snapshot %+v, want the compacted one", snap)
		}
	})
}

// FuzzReadSegment reads arbitrary bytes as a segment. Read as the active
// segment they must keep a prefix that ends at a newline and reads back,
// active or sealed, to the same events; read as a sealed segment they must
// fail or give those same events. The checked-in corpus is under
// testdata/fuzz/FuzzReadSegment.
func FuzzReadSegment(f *testing.F) {
	seg, err := os.ReadFile("testdata/torn-segment.jsonl")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seg)
	same := func(a, b []Event) bool { return len(a) == 0 && len(b) == 0 || reflect.DeepEqual(a, b) }
	f.Fuzz(func(t *testing.T, data []byte) {
		events, size, err := decodeSegment(data, true)
		if err != nil {
			t.Fatalf("as active: %v", err)
		}
		if size < 0 || size > int64(len(data)) || size > 0 && data[size-1] != '\n' {
			t.Fatalf("as active: kept %d of %d bytes, not a prefix ending at a newline", size, len(data))
		}
		for _, tolerate := range []bool{true, false} {
			again, n, err := decodeSegment(data[:size], tolerate)
			if err != nil || n != size || !same(again, events) {
				t.Fatalf("the kept prefix re-read (active %v): %d events, %d bytes, err %v; want %d events, %d bytes", tolerate, len(again), n, err, len(events), size)
			}
		}
		if sealed, n, err := decodeSegment(data, false); err == nil && (n != int64(len(data)) || !same(sealed, events)) {
			t.Fatalf("as sealed: %d events, %d of %d bytes; want an error or the %d events read as active", len(sealed), n, len(data), len(events))
		}
	})
}
