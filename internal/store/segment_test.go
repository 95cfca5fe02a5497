package store

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// walFiles lists the directory's segment files in name order.
func walFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		if _, ok := ParseSegmentFileName(e.Name()); ok {
			names = append(names, e.Name())
		}
	}
	return names
}

// appendN appends n observe events and fails the test on any error.
func appendN(t *testing.T, s Store, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := s.Append(testEvent("sess-1", i)); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenFile(dir, FileOptions{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, s, 20)
	m := s.Metrics()
	if m.Segments < 2 {
		t.Fatalf("no rotation after 20 events at 256-byte segments: %+v", m)
	}
	if got := len(walFiles(t, dir)); got != m.Segments {
		t.Fatalf("%d segment files on disk, metrics say %d", got, m.Segments)
	}
	_, events, err := s.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 20 {
		t.Fatalf("loaded %d events across segments, want 20", len(events))
	}
	for i, ev := range events {
		if ev.Seq != uint64(i+1) {
			t.Fatalf("event %d has seq %d: segment order broken", i, ev.Seq)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: the sequence resumes, the active segment keeps filling, and
	// rotation continues with fresh indices.
	s2, err := OpenFile(dir, FileOptions{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if seq, err := s2.Append(testEvent("sess-1", 20)); err != nil || seq != 21 {
		t.Fatalf("append after reopen: seq=%d err=%v", seq, err)
	}
	_, events, err = s2.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 21 || events[20].Seq != 21 {
		t.Fatalf("reopen lost events: %d loaded, last seq %d", len(events), events[len(events)-1].Seq)
	}
}

// TestLegacyWALMigration: a pre-segmentation data directory (wal.jsonl) is
// refused by name — with or without segment files beside it — and never
// opened as an apparently empty log; renaming the file to segment 1, as the
// error says, makes everything replay.
func TestLegacyWALMigration(t *testing.T) {
	dir := t.TempDir()
	var lines []string
	for i := 0; i < 3; i++ {
		ev := testEvent("sess-1", i)
		ev.Seq = uint64(i + 1)
		buf, err := json.Marshal(ev)
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, string(buf))
	}
	legacy := filepath.Join(dir, legacyWALFile)
	if err := os.WriteFile(legacy, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := OpenFile(dir); err == nil || !strings.Contains(err.Error(), legacy) {
		t.Fatalf("open over a legacy wal.jsonl: err=%v, want a refusal naming %s", err, legacy)
	}
	if files := walFiles(t, dir); len(files) != 0 {
		t.Fatalf("refused open left segment files behind: %v", files)
	}

	if err := os.Rename(legacy, filepath.Join(dir, SegmentFileName(1))); err != nil {
		t.Fatal(err)
	}
	s, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	_, events, err := s.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 3 {
		t.Fatalf("renamed log lost events: %d, want 3", len(events))
	}
	if seq, err := s.Append(testEvent("sess-1", 3)); err != nil || seq != 4 {
		t.Fatalf("append after rename: seq=%d err=%v", seq, err)
	}
}

func TestMixedLayoutRefused(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{legacyWALFile, SegmentFileName(1)} {
		if err := os.WriteFile(filepath.Join(dir, name), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := OpenFile(dir); err == nil {
		t.Fatal("mixed legacy+segmented layout opened without error")
	}
}

// TestOpenFileRefusesNegativeSegmentBytes: a negative rotation size would
// seal a segment after every append, each with an fsync, a file create and
// a directory sync. OpenFile refuses it by name and touches no directory;
// zero still means the default.
func TestOpenFileRefusesNegativeSegmentBytes(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	if _, err := OpenFile(dir, FileOptions{SegmentBytes: -1}); err == nil || !strings.Contains(err.Error(), "SegmentBytes") {
		t.Fatalf("open with SegmentBytes -1: err=%v, want a refusal naming SegmentBytes", err)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("refused open created its directory: %v", err)
	}
	s, err := OpenFile(dir, FileOptions{SegmentBytes: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.opts.SegmentBytes != 4<<20 {
		t.Fatalf("SegmentBytes 0 filled to %d, want the 4 MiB default", s.opts.SegmentBytes)
	}
}

// TestCompactPrunesOnlySealedSegments: compaction deletes sealed segments
// wholly at or below the fence and leaves everything else byte-identical.
func TestCompactPrunesOnlySealedSegments(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenFile(dir, FileOptions{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	appendN(t, s, 20)
	before := s.Metrics()
	if before.Segments < 3 {
		t.Fatalf("want >= 3 segments, got %+v", before)
	}
	// Fence past the first sealed segment only.
	fence := s.sealed[0].lastSeq
	if err := s.Compact(&Snapshot{Fence: fence}); err != nil {
		t.Fatal(err)
	}
	after := s.Metrics()
	if after.PrunedSegments != 1 || after.Segments != before.Segments-1 {
		t.Fatalf("pruning after fence %d: before %+v after %+v", fence, before, after)
	}
	if _, err := os.Stat(filepath.Join(dir, SegmentFileName(1))); !os.IsNotExist(err) {
		t.Fatalf("pruned segment still on disk: err=%v", err)
	}
	_, events, err := s.Load()
	if err != nil {
		t.Fatal(err)
	}
	// Surviving pre-fence events are fine (idempotent replay); every
	// post-fence event must still be there.
	var past int
	for _, ev := range events {
		if ev.Seq > fence {
			past++
		}
	}
	if past != 20-int(fence) {
		t.Fatalf("post-fence events after prune: %d, want %d", past, 20-int(fence))
	}

	// A fence covering everything seals the active segment and prunes the
	// whole log, leaving one fresh empty segment.
	if err := s.Compact(&Snapshot{Fence: s.Seq()}); err != nil {
		t.Fatal(err)
	}
	if m := s.Metrics(); m.Segments != 1 || m.WALEvents != 0 {
		t.Fatalf("full-coverage compaction left %+v", m)
	}
	if seq, err := s.Append(testEvent("sess-1", 20)); err != nil || seq != 21 {
		t.Fatalf("append after full prune: seq=%d err=%v", seq, err)
	}
}

// TestCompactSkipsUntouchedLog is the regression test for the PR-2
// behavior of rewriting the whole log on every compaction: when nothing
// can be pruned, the log files must not be touched at all.
func TestCompactSkipsUntouchedLog(t *testing.T) {
	t.Run("file", func(t *testing.T) {
		dir := t.TempDir()
		s, err := OpenFile(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		appendN(t, s, 8)
		// First compaction covers the whole log: the active segment is
		// sealed and pruned, leaving an empty successor.
		if err := s.Compact(&Snapshot{Fence: s.Seq()}); err != nil {
			t.Fatal(err)
		}
		m1 := s.Metrics()
		if m1.Segments != 1 || m1.WALEvents != 0 || m1.PrunedSegments != 1 {
			t.Fatalf("full-coverage compaction did not empty the log: %+v", m1)
		}
		files := walFiles(t, dir)
		if len(files) != 1 {
			t.Fatalf("segment files after full-coverage compaction: %v", files)
		}
		st0, err := os.Stat(filepath.Join(dir, files[0]))
		if err != nil {
			t.Fatal(err)
		}
		// Second compaction with no new events prunes nothing and must not
		// touch the log at all — the pre-check is one comparison per
		// segment (the PR-2 code rewrote the whole log here every time).
		if err := s.Compact(&Snapshot{Fence: s.Seq()}); err != nil {
			t.Fatal(err)
		}
		st1, err := os.Stat(filepath.Join(dir, files[0]))
		if err != nil {
			t.Fatal(err)
		}
		if st1.Size() != st0.Size() || !st1.ModTime().Equal(st0.ModTime()) {
			t.Fatalf("log touched by no-op compaction: size %d->%d mtime %v->%v",
				st0.Size(), st1.Size(), st0.ModTime(), st1.ModTime())
		}
		if m2 := s.Metrics(); m2.PrunedSegments != 1 || m2.Snapshots != 2 || m2.Segments != 1 {
			t.Fatalf("metrics after no-op compaction: %+v", m2)
		}
	})

	t.Run("mem", func(t *testing.T) {
		s := NewMem()
		defer s.Close()
		appendN(t, s, 8)
		before := s.log
		// Fence 0: nothing at or below it, so the log slice must be reused
		// untouched (no rewrite).
		if err := s.Compact(&Snapshot{Fence: 0}); err != nil {
			t.Fatal(err)
		}
		if len(s.log) != len(before) || &s.log[0] != &before[0] {
			t.Fatal("mem log rewritten by a compaction that pruned nothing")
		}
		// A fence that does cover events prunes as before.
		if err := s.Compact(&Snapshot{Fence: 4}); err != nil {
			t.Fatal(err)
		}
		if len(s.log) != 4 {
			t.Fatalf("mem log after pruning fence 4: %d entries, want 4", len(s.log))
		}
	})
}

// TestRecoveryMidRotation covers the crash windows of segment rotation:
// the new segment was created but never written (empty active), or the old
// segment was sealed and the process died before creating the next one.
func TestRecoveryMidRotation(t *testing.T) {
	t.Run("empty-active-segment", func(t *testing.T) {
		dir := t.TempDir()
		s, err := OpenFile(dir, FileOptions{SegmentBytes: 1}) // rotate after every append
		if err != nil {
			t.Fatal(err)
		}
		appendN(t, s, 3)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		// Layout now: three sealed one-event segments + an empty active one.
		files := walFiles(t, dir)
		if len(files) != 4 {
			t.Fatalf("layout = %v, want 3 sealed + 1 empty active", files)
		}

		s2, err := OpenFile(dir, FileOptions{SegmentBytes: 1})
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
		if seq, err := s2.Append(testEvent("sess-1", 3)); err != nil || seq != 4 {
			t.Fatalf("append into recovered empty active segment: seq=%d err=%v", seq, err)
		}
	})

	t.Run("sealed-only", func(t *testing.T) {
		dir := t.TempDir()
		s, err := OpenFile(dir, FileOptions{SegmentBytes: 1})
		if err != nil {
			t.Fatal(err)
		}
		appendN(t, s, 3)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		// Simulate dying between sealing a segment and creating its
		// successor: drop the empty active segment.
		files := walFiles(t, dir)
		if err := os.Remove(filepath.Join(dir, files[len(files)-1])); err != nil {
			t.Fatal(err)
		}

		s2, err := OpenFile(dir, FileOptions{SegmentBytes: 1})
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
		if seq, err := s2.Append(testEvent("sess-1", 3)); err != nil || seq != 4 {
			t.Fatalf("append after sealed-only recovery: seq=%d err=%v", seq, err)
		}
	})

	t.Run("torn-tail-behind-sealed-segments", func(t *testing.T) {
		dir := t.TempDir()
		s, err := OpenFile(dir, FileOptions{SegmentBytes: 256})
		if err != nil {
			t.Fatal(err)
		}
		appendN(t, s, 10)
		if s.Metrics().Segments < 2 {
			t.Fatal("test needs at least one sealed segment")
		}
		active := s.activePath()
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		f, err := os.OpenFile(active, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteString(`{"seq":11,"type":"observe","id":"sess-1","obs":{"conf`); err != nil {
			t.Fatal(err)
		}
		f.Close()

		s2, err := OpenFile(dir, FileOptions{SegmentBytes: 256})
		if err != nil {
			t.Fatal(err)
		}
		defer s2.Close()
		_, events, err := s2.Load()
		if err != nil {
			t.Fatal(err)
		}
		if len(events) != 10 {
			t.Fatalf("recovered %d events, want 10 (torn tail only)", len(events))
		}
		if seq, err := s2.Append(testEvent("sess-1", 10)); err != nil || seq != 11 {
			t.Fatalf("append after torn-tail truncation: seq=%d err=%v", seq, err)
		}
	})

	t.Run("torn-exactly-at-newline-boundary", func(t *testing.T) {
		// A crash can persist a record's JSON but not its trailing newline.
		// The decoded-but-unterminated line must count as torn: keeping it
		// would let the next append concatenate onto it and swallow both
		// events on the following recovery.
		dir := t.TempDir()
		s, err := OpenFile(dir)
		if err != nil {
			t.Fatal(err)
		}
		appendN(t, s, 3)
		active := s.activePath()
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		st, err := os.Stat(active)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(active, st.Size()-1); err != nil { // chop only the final newline
			t.Fatal(err)
		}

		s2, err := OpenFile(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer s2.Close()
		_, events, err := s2.Load()
		if err != nil {
			t.Fatal(err)
		}
		if len(events) != 2 {
			t.Fatalf("recovered %d events, want 2 (unterminated final record dropped)", len(events))
		}
		if seq, err := s2.Append(testEvent("sess-1", 2)); err != nil || seq != 3 {
			t.Fatalf("append after newline-boundary tear: seq=%d err=%v", seq, err)
		}
		if err := s2.Close(); err != nil {
			t.Fatal(err)
		}
		// The replacement record survives the next recovery whole — it was
		// not concatenated onto the unterminated fragment.
		s3, err := OpenFile(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer s3.Close()
		if _, events, err = s3.Load(); err != nil || len(events) != 3 {
			t.Fatalf("after second recovery: %d events err=%v, want 3", len(events), err)
		}
	})

	t.Run("corrupt-sealed-segment-fails-open", func(t *testing.T) {
		dir := t.TempDir()
		s, err := OpenFile(dir, FileOptions{SegmentBytes: 256})
		if err != nil {
			t.Fatal(err)
		}
		appendN(t, s, 10)
		if s.Metrics().Segments < 2 {
			t.Fatal("test needs at least one sealed segment")
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		// Corruption in a sealed segment is not a torn tail: it means lost
		// acknowledged events, and recovery must refuse to silently skip it.
		if err := os.WriteFile(filepath.Join(dir, SegmentFileName(1)), []byte("garbage\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenFile(dir, FileOptions{SegmentBytes: 256}); err == nil {
			t.Fatal("open succeeded over a corrupt sealed segment")
		}
	})
}

// TestGroupCommitConcurrentAppends hammers the group-commit path and
// verifies every acknowledged append is durable, uniquely sequenced, and
// ordered on disk.
func TestGroupCommitConcurrentAppends(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenFile(dir, FileOptions{
		SyncEachAppend: true,
		CommitInterval: 200 * time.Microsecond,
		CommitBatch:    8,
		SegmentBytes:   4096, // force rotations under load too
	})
	if err != nil {
		t.Fatal(err)
	}
	const goroutines, each = 16, 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if _, err := s.Append(testEvent("sess-1", g*each+i)); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	m := s.Metrics()
	if m.BatchedEvents != goroutines*each {
		t.Fatalf("batched %d events, want %d", m.BatchedEvents, goroutines*each)
	}
	if m.Batches == 0 || m.Batches >= m.BatchedEvents {
		t.Fatalf("no batching happened: %d batches for %d events", m.Batches, m.BatchedEvents)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	_, events, err := s2.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != goroutines*each {
		t.Fatalf("recovered %d events, want %d", len(events), goroutines*each)
	}
	seen := make(map[uint64]bool)
	last := uint64(0)
	for _, ev := range events {
		if seen[ev.Seq] {
			t.Fatalf("duplicate seq %d on disk", ev.Seq)
		}
		seen[ev.Seq] = true
		if ev.Seq <= last {
			t.Fatalf("on-disk order broken: seq %d after %d", ev.Seq, last)
		}
		last = ev.Seq
	}
}

// TestGroupCommitPartialBatchRecovered: a crash can tear the tail of a
// group-commit batch mid-record; recovery must keep the batch's whole
// prefix and continue cleanly.
func TestGroupCommitPartialBatchRecovered(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenFile(dir, FileOptions{SyncEachAppend: true, CommitInterval: time.Millisecond, CommitBatch: 32})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var count atomic.Int64
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				if _, err := s.Append(testEvent("sess-1", g*4+i)); err == nil {
					count.Add(1)
				}
			}
		}(g)
	}
	wg.Wait()
	active := s.activePath()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the last record in half — the on-disk shape of a machine crash
	// midway through a batch write.
	st, err := os.Stat(active)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(active, st.Size()-20); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenFile(dir, FileOptions{SyncEachAppend: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	_, events, err := s2.Load()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(events), int(count.Load())-1; got != want {
		t.Fatalf("recovered %d events after torn batch tail, want %d", got, want)
	}
	last := uint64(0)
	for _, ev := range events {
		if ev.Seq <= last {
			t.Fatalf("order broken after partial-batch recovery: %d after %d", ev.Seq, last)
		}
		last = ev.Seq
	}
	// The next append lands after the surviving prefix.
	if seq, err := s2.Append(testEvent("sess-1", 99)); err != nil || seq != last+1 {
		t.Fatalf("append after partial-batch recovery: seq=%d err=%v (last=%d)", seq, err, last)
	}
}

// TestCloseFlushesOpenBatch: Close must not strand appenders waiting on a
// coalescing batch — it commits the open batch before tearing down.
func TestCloseFlushesOpenBatch(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenFile(dir, FileOptions{SyncEachAppend: true, CommitInterval: 10 * time.Second, CommitBatch: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := s.Append(testEvent("sess-1", 0))
		done <- err
	}()
	time.Sleep(50 * time.Millisecond) // let the append join the batch
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("append stranded by Close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("append never returned after Close")
	}
	s2, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if _, events, err := s2.Load(); err != nil || len(events) != 1 {
		t.Fatalf("event from the closed-out batch lost: %d events, err=%v", len(events), err)
	}
}
