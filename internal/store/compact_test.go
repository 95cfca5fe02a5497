package store

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// SetCompactStep installs the test seam of Compact: f is told each step
// boundary by name ("temp-written", "renamed", "dir-synced", "sealed",
// "pruned" once per segment), on the goroutine running the compaction.
// The first three fall outside the store lock, the rest inside it.
func (s *File) SetCompactStep(f func(step string)) { s.step = f }

// TestCompactDoesNotBlockAppend holds a compaction inside its write phase —
// snapshot encoded and on disk, not yet renamed — and appends durably
// meanwhile. With the encode and write back under the store lock the step
// would be reached holding it and the append could never return.
func TestCompactDoesNotBlockAppend(t *testing.T) {
	t.Run("group-commit", func(t *testing.T) {
		s, err := OpenFile(t.TempDir(), FileOptions{SyncEachAppend: true})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		appendN(t, s, 8)

		held, release := make(chan struct{}), make(chan struct{})
		s.SetCompactStep(func(step string) {
			if step == "temp-written" {
				close(held)
				<-release
			}
		})
		compacted := make(chan error, 1)
		go func() { compacted <- s.Compact(&Snapshot{Fence: s.Seq()}) }()
		<-held

		appended := make(chan error, 1)
		go func() {
			_, err := s.Append(testEvent("sess-1", 8))
			appended <- err
		}()
		select {
		case err := <-appended:
			if err != nil {
				t.Errorf("append during a compaction: %v", err)
			}
		case <-time.After(30 * time.Second):
			t.Error("append still blocked behind a compaction that is writing its snapshot")
		}
		close(release)
		if err := <-compacted; err != nil {
			t.Fatal(err)
		}

		// The event appended meanwhile is past the fence: it stays.
		_, events, err := s.Load()
		if err != nil {
			t.Fatal(err)
		}
		if len(events) == 0 || events[len(events)-1].Seq != 9 {
			t.Fatalf("log after the compaction: %d events, want it to end at seq 9", len(events))
		}
	})
}

// TestCompactRefusedLeavesSnapshotUntouched: a closed store and a degraded
// one both refuse a compaction before a byte of it is written.
func TestCompactRefusedLeavesSnapshotUntouched(t *testing.T) {
	for name, stop := range map[string]func(t *testing.T, s *File) error{
		"closed": func(t *testing.T, s *File) error {
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			return nil
		},
		"degraded": func(t *testing.T, s *File) error {
			s.degrade("test")
			return ErrDegraded
		},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := OpenFile(dir, FileOptions{SegmentBytes: 512})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			appendN(t, s, 12)
			if err := s.Compact(&Snapshot{Fence: 4, NextID: 1}); err != nil {
				t.Fatal(err)
			}
			before := dirImage(t, dir)
			hash, m := s.SnapshotHash(), s.Metrics()
			want := stop(t, s)

			err = s.Compact(&Snapshot{Fence: s.Seq(), NextID: 2})
			if err == nil || (want != nil && !errors.Is(err, want)) {
				t.Fatalf("compact on a %s store: %v", name, err)
			}
			if after := dirImage(t, dir); !reflect.DeepEqual(after, before) {
				t.Fatalf("refused compaction changed the directory:\n before %v\n after  %v", names(before), names(after))
			}
			if got := s.Metrics(); s.SnapshotHash() != hash || got.Snapshots != m.Snapshots || got.SnapshotBytesWritten != m.SnapshotBytesWritten {
				t.Fatalf("refused compaction counted: hash %s -> %s, %+v -> %+v", hash, s.SnapshotHash(), m, got)
			}
		})
	}
}

// TestCompactSyncsRenameBeforePrune: the snapshot's rename is on disk (the
// directory fsynced) before the first segment it covers is sealed or
// unlinked, and every such segment is still there when it is.
func TestCompactSyncsRenameBeforePrune(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenFile(dir, FileOptions{SegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	appendN(t, s, 12)
	segments := walFiles(t, dir)
	if len(segments) < 3 {
		t.Fatalf("want several segments, have %v", segments)
	}
	var steps []string
	s.SetCompactStep(func(step string) {
		steps = append(steps, step)
		if step == "dir-synced" {
			if got := walFiles(t, dir); !reflect.DeepEqual(got, segments) {
				t.Errorf("segments at the directory sync: %v, want all of %v", got, segments)
			}
			if _, err := os.Stat(filepath.Join(dir, snapshotFile)); err != nil {
				t.Errorf("snapshot at the directory sync: %v", err)
			}
		}
	})
	if err := s.Compact(&Snapshot{Fence: s.Seq()}); err != nil {
		t.Fatal(err)
	}
	if want := []string{"temp-written", "renamed", "dir-synced"}; len(steps) < 3 || !reflect.DeepEqual(steps[:3], want) {
		t.Fatalf("steps %v, want them to start %v", steps, want)
	}
	pruned := 0
	for _, step := range steps[3:] {
		if step == "pruned" {
			pruned++
		} else if step != "sealed" {
			t.Fatalf("steps %v: %q after the directory sync", steps, step)
		}
	}
	left := walFiles(t, dir)
	gone := len(segments)
	for _, name := range left {
		if name <= segments[len(segments)-1] {
			gone--
		}
	}
	if pruned < 2 || pruned != gone {
		t.Fatalf("steps %v: %d prunes, segments %v -> %v", steps, pruned, segments, left)
	}
}

// TestOpenFileSweepsTempFiles: the temp file a kill -9 leaves between
// Compact's create and its rename goes at the next open; log and snapshot
// are not touched.
func TestOpenFileSweepsTempFiles(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, s, 5)
	if err := s.Compact(&Snapshot{Fence: 2}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	before := dirImage(t, dir)
	stale := filepath.Join(dir, ".store-123456")
	if err := os.WriteFile(stale, bytes.Repeat([]byte("x"), 1<<10), 0o600); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if after := dirImage(t, dir); !reflect.DeepEqual(after, before) {
		t.Fatalf("directory after the open: %v, want %v", names(after), names(before))
	}
	if snap, events, err := s2.Load(); err != nil || snap == nil || snap.Fence != 2 || len(events) != 5 {
		t.Fatalf("load after the sweep: snap %+v, %d events, err %v", snap, len(events), err)
	}
}

// TestSnapshotHashNamesTheFile: the hash is the HashHex of snapshot.json
// after a compaction and after a reopen — also of a snapshot written
// indented, as releases before the compact encoding did.
func TestSnapshotHashNamesTheFile(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	if h := s.SnapshotHash(); h != "" {
		t.Fatalf("hash with no snapshot: %q", h)
	}
	appendN(t, s, 3)
	if err := s.Compact(&Snapshot{Fence: s.Seq()}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, snapshotFile))
	if err != nil {
		t.Fatal(err)
	}
	if h := s.SnapshotHash(); h != HashHex(raw) {
		t.Fatalf("hash after compaction %q, file hashes to %q", h, HashHex(raw))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	indented := []byte("{\n \"taken_at\": \"0001-01-01T00:00:00Z\",\n \"fence\": 3,\n \"next_id\": 0\n}")
	if err := os.WriteFile(filepath.Join(dir, snapshotFile), indented, 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if h := s2.SnapshotHash(); h != HashHex(indented) {
		t.Fatalf("hash after reopen %q, file hashes to %q", h, HashHex(indented))
	}
	if m := s2.Metrics(); m.SnapshotBytes != int64(len(indented)) || m.Seq != 3 {
		t.Fatalf("reopened on an indented snapshot: %+v", m)
	}
}

// dirImage reads every file of dir.
func dirImage(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	img := make(map[string]string)
	for _, e := range entries {
		buf, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		img[e.Name()] = string(buf)
	}
	return img
}

func names(img map[string]string) []string {
	var out []string
	for name := range img {
		out = append(out, name)
	}
	return out
}
