package store

import (
	"errors"
	"os"
	"path/filepath"
	"syscall"
	"testing"

	"relm/internal/fault"
)

// armWrite arms a single-rule schedule on one store failpoint and disarms
// it when the test ends.
func armStoreFault(t *testing.T, point, action string, arg, count int) {
	t.Helper()
	err := fault.Apply(fault.Schedule{Seed: 1, Rules: []fault.Rule{
		{Point: point, Action: action, Arg: arg, Count: count},
	}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fault.DisarmAll)
}

func TestInjectedWriteErrorIsCleanAndTransient(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	appendN(t, s, 2)

	armStoreFault(t, "store.write", "error", 0, 1)
	if _, err := s.Append(testEvent("sess-1", 2)); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("append under store.write fault: %v, want injected error", err)
	}
	// A clean injected failure must not degrade the WAL: nothing touched
	// the file, so the next append simply succeeds.
	if m := s.Metrics(); m.Degraded {
		t.Fatalf("clean injected write error degraded the store: %q", m.DegradedReason)
	}
	if _, err := s.Append(testEvent("sess-1", 3)); err != nil {
		t.Fatalf("append after transient fault: %v", err)
	}
	_, events, err := s.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 3 {
		t.Fatalf("replayed %d events, want 3 (2 pre-fault + 1 post)", len(events))
	}
}

func TestInjectedFsyncDegradesStore(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenFile(dir, FileOptions{SyncEachAppend: true, NoGroupCommit: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	appendN(t, s, 3)

	armStoreFault(t, "store.fsync", "error", 0, 1)
	if _, err := s.Append(testEvent("sess-1", 3)); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("append under store.fsync fault: %v, want injected error", err)
	}
	m := s.Metrics()
	if !m.Degraded || m.DegradedReason == "" {
		t.Fatalf("fsync failure must degrade the WAL: %+v", m)
	}
	// Degraded means read-only: appends and compactions refuse with the
	// typed error, but the log remains replayable.
	if _, err := s.Append(testEvent("sess-1", 4)); !errors.Is(err, ErrDegraded) {
		t.Fatalf("append on degraded store: %v, want ErrDegraded", err)
	}
	if err := s.Compact(&Snapshot{Fence: s.Seq()}); !errors.Is(err, ErrDegraded) {
		t.Fatalf("compact on degraded store: %v, want ErrDegraded", err)
	}
	if reason, ok := s.Degraded(); !ok || reason == "" {
		t.Fatal("Degraded() accessor disagrees with Metrics")
	}
	_, events, err := s.Load()
	if err != nil {
		t.Fatal(err)
	}
	// The faulted append reached the OS before the injected fsync failure,
	// so replay may legitimately include it; the 3 acked events must be
	// there.
	if len(events) < 3 {
		t.Fatalf("degraded store lost acked events: %d < 3", len(events))
	}
	fault.DisarmAll()

	// A fresh open of the same dir starts clean — degradation is the
	// process's verdict on its file handle, not a property of the data.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if m := s2.Metrics(); m.Degraded {
		t.Fatal("reopened store inherited degradation")
	}
	if _, err := s2.Append(testEvent("sess-1", 9)); err != nil {
		t.Fatal(err)
	}
}

func TestInjectedTornWriteDegradesAndRecoveryDropsIt(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, s, 3)

	armStoreFault(t, "store.write", "torn", 7, 1)
	if _, err := s.Append(testEvent("sess-1", 3)); !errors.Is(err, ErrDegraded) {
		t.Fatalf("torn append: %v, want ErrDegraded", err)
	}
	if m := s.Metrics(); !m.Degraded {
		t.Fatal("torn write must degrade immediately")
	}
	fault.DisarmAll()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Recovery truncates the injected 7-byte partial record and replays
	// exactly the acked prefix.
	s2, err := OpenFile(dir)
	if err != nil {
		t.Fatalf("open after torn write: %v", err)
	}
	defer s2.Close()
	_, events, err := s2.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 3 {
		t.Fatalf("replayed %d events after torn write, want 3", len(events))
	}
	if _, err := s2.Append(testEvent("sess-1", 3)); err != nil {
		t.Fatal(err)
	}
}

func TestGroupCommitFsyncFaultFansOutAndDegrades(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenFile(dir, FileOptions{SyncEachAppend: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	appendN(t, s, 2)

	armStoreFault(t, "store.fsync", "error", 0, 1)
	if _, err := s.Append(testEvent("sess-1", 2)); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("group-committed append under fsync fault: %v, want injected error", err)
	}
	if m := s.Metrics(); !m.Degraded {
		t.Fatal("group-commit fsync failure must degrade the WAL")
	}
	if _, err := s.Append(testEvent("sess-1", 3)); !errors.Is(err, ErrDegraded) {
		t.Fatalf("append after degrade: %v, want ErrDegraded", err)
	}
}

func TestInjectedENOSPCChainsErrno(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	armStoreFault(t, "store.write", "enospc", 0, 1)
	_, err = s.Append(testEvent("sess-1", 0))
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("want injected error, got %v", err)
	}
	// Code that special-cases disk-full must see the real errno.
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("injected enospc should chain syscall.ENOSPC: %v", err)
	}
}

// --- torn-record-at-head recovery (satellite: zero-length / torn head of
// the active segment, not just mid-file tails) -------------------------------

// sealedPlusActive builds a layout with real sealed segments and an empty
// active segment by forcing a rotation per append, then closing.
func sealedPlusActive(t *testing.T, events int) (dir string, activePath string) {
	t.Helper()
	dir = t.TempDir()
	s, err := OpenFile(dir, FileOptions{SegmentBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, s, events)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(dir)
	if err != nil || len(segs) < 2 {
		t.Fatalf("layout needs >=2 segments, got %v (err %v)", segs, err)
	}
	return dir, filepath.Join(dir, SegmentFileName(segs[len(segs)-1]))
}

// reopenAndCheck opens dir, asserts the replayed event count, then proves
// the store is writable and survives another recovery.
func reopenAndCheck(t *testing.T, dir string, want int) {
	t.Helper()
	s, err := OpenFile(dir)
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	_, events, err := s.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != want {
		t.Fatalf("replayed %d events, want %d", len(events), want)
	}
	if _, err := s.Append(testEvent("sess-1", 99)); err != nil {
		t.Fatalf("append after head-torn recovery: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenFile(dir)
	if err != nil {
		t.Fatalf("second recovery failed: %v", err)
	}
	defer s2.Close()
	_, events, err = s2.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != want+1 {
		t.Fatalf("second replay %d events, want %d", len(events), want+1)
	}
}

func TestRecoverEmptyActiveSegment(t *testing.T) {
	dir, active := sealedPlusActive(t, 3)
	if st, err := os.Stat(active); err != nil || st.Size() != 0 {
		t.Fatalf("active segment should be empty: %v, %v", st, err)
	}
	reopenAndCheck(t, dir, 3)
}

func TestRecoverTornRecordAtHeadOfActiveSegment(t *testing.T) {
	for name, head := range map[string][]byte{
		"partial-json":      []byte(`{"seq":4,"type":"obs`),
		"nul-fill":          {0, 0, 0, 0, 0, 0, 0, 0},
		"whitespace-only":   []byte("   "),
		"blank-then-torn":   []byte("\n{\"seq\":4"),
		"terminated-garbge": []byte("{{{\n"),
	} {
		t.Run(name, func(t *testing.T) {
			dir, active := sealedPlusActive(t, 3)
			if err := os.WriteFile(active, head, 0o644); err != nil {
				t.Fatal(err)
			}
			reopenAndCheck(t, dir, 3)
		})
	}
}

func TestRecoverTornHeadSingleSegment(t *testing.T) {
	// The whole log is one active segment whose first record is torn — a
	// crash during the very first append.
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, SegmentFileName(1)), []byte(`{"seq":1,"ty`), 0o644); err != nil {
		t.Fatal(err)
	}
	reopenAndCheck(t, dir, 0)
}
