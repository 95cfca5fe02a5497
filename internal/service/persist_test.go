package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"relm/internal/conf"
	"relm/internal/obs"
	"relm/internal/store"
)

// crash stops a Manager's goroutines without snapshotting or closing the
// store — the in-process stand-in for SIGKILL. Everything the restarted
// manager may rely on must already be in the write-ahead log.
func crash(m *Manager) {
	m.closed.Store(true)
	close(m.quit)
	m.wg.Wait()
}

// historiesEqual compares two session histories entry by entry (DeepEqual
// covers configs, runtimes, objectives, abort flags, and stats values).
func historiesEqual(a, b []HistoryEntry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !reflect.DeepEqual(a[i], b[i]) {
			return false
		}
	}
	return true
}

func waitState(t *testing.T, m *Manager, id, want string) Status {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for {
		st, err := m.Get(id)
		if err != nil {
			t.Fatalf("get %s: %v", id, err)
		}
		if st.State == want {
			return st
		}
		if st.State == StateFailed {
			t.Fatalf("session %s failed: %+v", id, st)
		}
		if time.Now().After(deadline) {
			t.Fatalf("session %s stuck in %q waiting for %q", id, st.State, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestKillAndRestoreRemote journals a multi-session remote run, drops the
// Manager mid-flight, restores into a fresh Manager, and asserts identical
// histories and statuses — then keeps driving the restored sessions
// concurrently (run with -race).
func TestKillAndRestoreRemote(t *testing.T) {
	dir := t.TempDir()
	fs, err := store.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	m1, err := Open(Options{Workers: 1, Store: fs})
	if err != nil {
		t.Fatal(err)
	}

	// Three remote sessions on different backends, each fed a few real
	// (simulated) measurements; one is closed before the crash.
	specs := []Spec{
		{Backend: "bo", Workload: "K-means", Seed: 3, MaxIterations: 6},
		{Backend: "gbo", Workload: "SortByKey", Seed: 4, MaxIterations: 6},
		{Backend: "relm", Workload: "PageRank", Seed: 5},
	}
	ids := make([]string, len(specs))
	for i, spec := range specs {
		st, err := m1.Create(spec)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = st.ID
		for step := 0; step < 3; step++ {
			cfg, done, err := m1.Suggest(st.ID)
			if err != nil {
				t.Fatal(err)
			}
			if done {
				break
			}
			obs := measure(t, spec.Cluster, spec.Workload, Observation{Config: cfg}, uint64(50*i+step))
			if _, err := m1.Observe(st.ID, obs); err != nil {
				t.Fatal(err)
			}
		}
	}
	closedSt, err := m1.Create(Spec{Backend: "bo", Workload: "SVM", Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if err := m1.CloseSession(closedSt.ID); err != nil {
		t.Fatal(err)
	}

	before := make(map[string]Status)
	histories := make(map[string][]HistoryEntry)
	nextSuggest := make(map[string]string)
	for _, id := range ids {
		st, err := m1.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		before[id] = st
		hist, err := m1.History(id)
		if err != nil {
			t.Fatal(err)
		}
		histories[id] = hist
		cfg, _, err := m1.Suggest(id)
		if err != nil {
			t.Fatal(err)
		}
		nextSuggest[id] = fmt.Sprintf("%+v", cfg)
	}

	crash(m1)

	fs2, err := store.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Open(Options{Workers: 1, Store: fs2})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()

	if m2.Len() != len(ids) {
		t.Fatalf("restored %d sessions, want %d (closed one must stay closed)", m2.Len(), len(ids))
	}
	if _, err := m2.Get(closedSt.ID); err != ErrNotFound {
		t.Fatalf("tombstoned session resurrected: err=%v", err)
	}
	if err := m2.CloseSession(closedSt.ID); err != nil {
		t.Fatalf("close of tombstoned session after restart: %v, want idempotent nil", err)
	}

	for _, id := range ids {
		st, err := m2.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		want := before[id]
		if st.State != want.State || st.Evals != want.Evals || st.Done != want.Done || st.Backend != want.Backend {
			t.Fatalf("restored status mismatch for %s:\n got %+v\nwant %+v", id, st, want)
		}
		if (st.Best == nil) != (want.Best == nil) {
			t.Fatalf("restored best presence mismatch for %s", id)
		}
		if st.Best != nil && (*st.Best != *want.Best) {
			t.Fatalf("restored best mismatch for %s: %+v vs %+v", id, st.Best, want.Best)
		}
		hist, err := m2.History(id)
		if err != nil {
			t.Fatal(err)
		}
		if !historiesEqual(hist, histories[id]) {
			t.Fatalf("restored history differs for %s:\n got %+v\nwant %+v", id, hist, histories[id])
		}
		// The rebuilt tuner continues exactly where the original stood.
		cfg, _, err := m2.Suggest(id)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%+v", cfg); got != nextSuggest[id] {
			t.Fatalf("restored suggestion differs for %s: %s vs %s", id, got, nextSuggest[id])
		}
	}

	// New sessions never collide with journaled IDs.
	st, err := m2.Create(Spec{Backend: "bo", Workload: "SVM", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range append(append([]string(nil), ids...), closedSt.ID) {
		if st.ID == id {
			t.Fatalf("new session reused journaled ID %s", id)
		}
	}

	// Suggest/observe keeps working on the restored sessions, concurrently.
	var wg sync.WaitGroup
	errs := make(chan error, len(ids)*8)
	for _, id := range ids {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			for step := 0; step < 4; step++ {
				cfg, done, err := m2.Suggest(id)
				if err != nil {
					errs <- fmt.Errorf("suggest %s: %w", id, err)
					return
				}
				if done {
					return
				}
				if _, err := m2.Observe(id, Observation{Config: cfg, RuntimeSec: 120 + float64(step)}); err != nil {
					errs <- fmt.Errorf("observe %s: %w", id, err)
					return
				}
			}
		}(id)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestRestoredAutoSessionMatchesUninterrupted crashes an auto session
// mid-flight, restores it, lets the worker pool finish it, and asserts the
// stitched history is identical to an uninterrupted run — replay fidelity
// down to the simulator seeds and the tuner's RNG stream, for the
// surrogate-based backends and the stateful DDPG agent alike.
func TestRestoredAutoSessionMatchesUninterrupted(t *testing.T) {
	for _, backend := range []string{"bo", "gbo", "ddpg"} {
		t.Run(backend, func(t *testing.T) {
			testRestoredAutoMatches(t, Spec{
				Backend: backend, Workload: "K-means", Mode: ModeAuto,
				Seed: 6, MaxIterations: 4, MaxSteps: 5,
			})
		})
	}
}

func testRestoredAutoMatches(t *testing.T, spec Spec) {
	testRestoredAutoMatchesStore(t, spec, store.FileOptions{}, nil)
}

// testRestoredAutoMatchesStore is the crash-matrix core: run an auto
// session against a file store with the given options, kill the manager
// mid-flight, optionally mangle the on-disk state (simulating what a
// machine crash leaves behind), restore, finish, and require the stitched
// history to bit-match an uninterrupted run.
func testRestoredAutoMatchesStore(t *testing.T, spec Spec, fopts store.FileOptions, mangle func(t *testing.T, dir string)) {
	// Reference: the same session driven to completion with no restart.
	ref := newTestManager(t, Options{Workers: 1})
	refSt, err := ref.Create(spec)
	if err != nil {
		t.Fatal(err)
	}
	refFinal := waitState(t, ref, refSt.ID, StateDone)
	refHist, err := ref.History(refSt.ID)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	fs, err := store.OpenFile(dir, fopts)
	if err != nil {
		t.Fatal(err)
	}
	m1, err := Open(Options{Workers: 1, Store: fs})
	if err != nil {
		t.Fatal(err)
	}
	st, err := m1.Create(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Let the worker record at least one experiment, then pull the plug.
	deadline := time.Now().Add(60 * time.Second)
	for {
		cur, err := m1.Get(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if cur.Evals >= 1 || cur.State == StateDone {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("auto session never recorded an experiment")
		}
		time.Sleep(2 * time.Millisecond)
	}
	crash(m1)
	if mangle != nil {
		mangle(t, dir)
	}

	fs2, err := store.OpenFile(dir, fopts)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Open(Options{Workers: 1, Store: fs2})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()

	final := waitState(t, m2, st.ID, StateDone)
	hist, err := m2.History(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !historiesEqual(hist, refHist) {
		t.Fatalf("restored-and-continued history differs from uninterrupted run:\n got %d evals %+v\nwant %d evals %+v",
			len(hist), hist, len(refHist), refHist)
	}
	if refFinal.Best == nil || final.Best == nil || *final.Best != *refFinal.Best {
		t.Fatalf("best mismatch: %+v vs %+v", final.Best, refFinal.Best)
	}
}

// TestRestoredAutoMatchesCrashMatrix re-runs the bit-match acceptance
// under the segmented WAL's crash windows: 512-byte segments put the kill
// mid-rotation (the log spans many segments, the last possibly empty);
// the group-commit case fsyncs batches and then loses the tail of the
// final batch (a machine crash mid-group-commit leaves exactly such a
// partial batch on disk) — the lost observation is deterministically
// re-measured, so the stitched history still bit-matches.
func TestRestoredAutoMatchesCrashMatrix(t *testing.T) {
	spec := Spec{Backend: "bo", Workload: "K-means", Mode: ModeAuto, Seed: 6, MaxIterations: 4}
	t.Run("mid-segment-rotation", func(t *testing.T) {
		testRestoredAutoMatchesStore(t, spec, store.FileOptions{SegmentBytes: 512}, nil)
	})
	t.Run("mid-group-commit-partial-batch", func(t *testing.T) {
		fopts := store.FileOptions{
			SyncEachAppend: true,
			CommitInterval: 200 * time.Microsecond,
			CommitBatch:    4,
		}
		testRestoredAutoMatchesStore(t, spec, fopts, func(t *testing.T, dir string) {
			truncateActiveSegmentTail(t, dir, 12)
		})
	})
	t.Run("gbo-mid-rotation-and-partial-batch", func(t *testing.T) {
		gspec := Spec{Backend: "gbo", Workload: "K-means", Mode: ModeAuto, Seed: 6, MaxIterations: 4}
		testRestoredAutoMatchesStore(t, gspec, store.FileOptions{SegmentBytes: 512}, func(t *testing.T, dir string) {
			truncateActiveSegmentTail(t, dir, 12)
		})
	})
}

// truncateActiveSegmentTail cuts n bytes off the highest-numbered WAL
// segment, tearing its last record in half.
func truncateActiveSegmentTail(t *testing.T, dir string, n int64) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var last string
	for _, e := range entries {
		name := e.Name()
		if strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".jsonl") && name > last {
			last = name
		}
	}
	if last == "" {
		t.Fatal("no WAL segment to truncate")
	}
	path := filepath.Join(dir, last)
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	size := st.Size() - n
	if size < 0 {
		size = 0
	}
	if err := os.Truncate(path, size); err != nil {
		t.Fatal(err)
	}
}

// TestWarmStartFewerSteps is the §6.6 acceptance test: after a cold
// session completes on a workload, a new session with a matching
// fingerprint must be seeded from the repository, reach the completed
// session's best runtime, and use measurably fewer suggest/observe steps.
func TestWarmStartFewerSteps(t *testing.T) {
	m := newTestManager(t, Options{Workers: 2, Store: store.NewMem()})

	// The cold session opts into the §6.6 protocol too: the repository is
	// empty so it stays cold, but its fingerprinting run of the default
	// configuration makes it matchable once harvested.
	cold, err := m.Create(Spec{Backend: "bo", Workload: "PageRank", Mode: ModeAuto, Seed: 1, MaxIterations: 8, WarmStart: true})
	if err != nil {
		t.Fatal(err)
	}
	coldFinal := waitState(t, m, cold.ID, StateDone)
	if coldFinal.WarmStarted {
		t.Fatalf("cold session claims a warm start: %+v", coldFinal)
	}
	if coldFinal.Best == nil {
		t.Fatal("cold session found no best")
	}
	mt := m.Metrics()
	if mt.RepoEntries != 1 {
		t.Fatalf("completed session not harvested: %d repo entries", mt.RepoEntries)
	}

	warm, err := m.Create(Spec{Backend: "bo", Workload: "PageRank", Mode: ModeAuto, Seed: 2, MaxIterations: 8, WarmStart: true})
	if err != nil {
		t.Fatal(err)
	}
	warmFinal := waitState(t, m, warm.ID, StateDone)
	if !warmFinal.WarmStarted {
		t.Fatalf("matching session was not warm-started: %+v", warmFinal)
	}
	if warmFinal.WarmSource != "PageRank" {
		t.Fatalf("warm source = %q, want PageRank", warmFinal.WarmSource)
	}
	if warmFinal.WarmDistance < 0 || warmFinal.WarmDistance > 0.25 {
		t.Fatalf("warm distance = %v, want within the 0.25 threshold", warmFinal.WarmDistance)
	}
	if warmFinal.Evals >= coldFinal.Evals {
		t.Fatalf("warm start took %d evals, cold took %d — no savings", warmFinal.Evals, coldFinal.Evals)
	}
	if warmFinal.Best == nil {
		t.Fatal("warm session found no best")
	}
	// The warm session confirms the transferred optimum, so its best
	// runtime matches the cold session's up to simulator noise.
	if warmFinal.Best.RuntimeSec > coldFinal.Best.RuntimeSec*1.10 {
		t.Fatalf("warm best %.1fs does not reach cold best %.1fs",
			warmFinal.Best.RuntimeSec, coldFinal.Best.RuntimeSec)
	}
	if m.Metrics().WarmStarts != 1 {
		t.Fatalf("warm-start counter = %d, want 1", m.Metrics().WarmStarts)
	}

	// A non-matching cluster must not be warm-started (§6.6: models do not
	// transfer across hardware).
	other, err := m.Create(Spec{Backend: "bo", Workload: "PageRank", Cluster: "B", Mode: ModeAuto, Seed: 3, MaxIterations: 2, WarmStart: true})
	if err != nil {
		t.Fatal(err)
	}
	otherFinal := waitState(t, m, other.ID, StateDone)
	if otherFinal.WarmStarted {
		t.Fatalf("cluster-B session warm-started from a cluster-A model: %+v", otherFinal)
	}
}

// TestWarmStartSurvivesRestart: the repository is part of the durable
// state — a completed session's model warm-starts sessions created after a
// restart.
func TestWarmStartSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	fs, err := store.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	m1, err := Open(Options{Workers: 1, Store: fs})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := m1.Create(Spec{Backend: "bo", Workload: "K-means", Mode: ModeAuto, Seed: 1, MaxIterations: 4, WarmStart: true})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m1, cold.ID, StateDone)
	crash(m1)

	fs2, err := store.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Open(Options{Workers: 1, Store: fs2})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if n := m2.Metrics().RepoEntries; n != 1 {
		t.Fatalf("repository lost across restart: %d entries", n)
	}
	warm, err := m2.Create(Spec{Backend: "gbo", Workload: "K-means", Mode: ModeAuto, Seed: 2, MaxIterations: 4, WarmStart: true})
	if err != nil {
		t.Fatal(err)
	}
	warmFinal := waitState(t, m2, warm.ID, StateDone)
	if !warmFinal.WarmStarted {
		t.Fatalf("post-restart session not warm-started: %+v", warmFinal)
	}
}

// TestRestoreAfterCompaction forces snapshots mid-run and verifies restore
// stitches snapshot + log correctly.
func TestRestoreAfterCompaction(t *testing.T) {
	dir := t.TempDir()
	fs, err := store.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	m1, err := Open(Options{Workers: 1, Store: fs, SnapshotEvery: 4})
	if err != nil {
		t.Fatal(err)
	}

	st, err := m1.Create(Spec{Backend: "bo", Workload: "WordCount", Seed: 8, MaxIterations: 6})
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 5; step++ {
		cfg, done, err := m1.Suggest(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if done {
			break
		}
		if _, err := m1.Observe(st.ID, Observation{Config: cfg, RuntimeSec: 200 - float64(step)}); err != nil {
			t.Fatal(err)
		}
	}
	// The snapshotter runs asynchronously; wait for at least one compaction.
	deadline := time.Now().Add(30 * time.Second)
	for fs.Metrics().Snapshots == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no compaction happened")
		}
		time.Sleep(2 * time.Millisecond)
	}
	hist, err := m1.History(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	crash(m1)

	fs2, err := store.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Open(Options{Workers: 1, Store: fs2})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	got, err := m2.History(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !historiesEqual(got, hist) {
		t.Fatalf("post-compaction restore differs:\n got %+v\nwant %+v", got, hist)
	}
}

// TestEvictionTombstoneSurvivesRestart: a TTL-evicted session must not be
// resurrected by replay, and the eviction counter carries over.
func TestEvictionTombstoneSurvivesRestart(t *testing.T) {
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	dir := t.TempDir()
	fs, err := store.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	m1, err := Open(Options{Workers: 1, TTL: time.Minute, Now: clock, Store: fs})
	if err != nil {
		t.Fatal(err)
	}
	st, err := m1.Create(Spec{Backend: "bo", Workload: "SVM"})
	if err != nil {
		t.Fatal(err)
	}
	keep, err := m1.Create(Spec{Backend: "bo", Workload: "SVM", Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	now = now.Add(2 * time.Minute)
	// Touch the keeper so only the first session is idle.
	if _, _, err := m1.Suggest(keep.ID); err != nil {
		t.Fatal(err)
	}
	if n := m1.Sweep(); n != 1 {
		t.Fatalf("Sweep evicted %d, want 1", n)
	}
	// Take a snapshot too: the tombstone must survive compaction.
	if err := m1.Snapshot(); err != nil {
		t.Fatal(err)
	}
	crash(m1)

	fs2, err := store.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Open(Options{Workers: 1, TTL: time.Minute, Now: clock, Store: fs2})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if _, err := m2.Get(st.ID); err != ErrNotFound {
		t.Fatalf("evicted session resurrected: err=%v", err)
	}
	if _, err := m2.Get(keep.ID); err != nil {
		t.Fatalf("live session lost: %v", err)
	}
	if n := m2.Metrics().Evictions; n != 1 {
		t.Fatalf("eviction counter lost: %d", n)
	}
}

// TestCleanCloseRestoresFromSnapshot: Close takes a final snapshot, so the
// next Open restores sessions without any log to replay.
func TestCleanCloseRestoresFromSnapshot(t *testing.T) {
	dir := t.TempDir()
	fs, err := store.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	m1, err := Open(Options{Workers: 1, Store: fs})
	if err != nil {
		t.Fatal(err)
	}
	st, err := m1.Create(Spec{Backend: "bo", Workload: "K-means", Seed: 12, MaxIterations: 6})
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 2; step++ {
		cfg, _, err := m1.Suggest(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m1.Observe(st.ID, Observation{Config: cfg, RuntimeSec: 150 + float64(step)}); err != nil {
			t.Fatal(err)
		}
	}
	hist, err := m1.History(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	m1.Close() // snapshots and closes the store

	fs2, err := store.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, events, err := fs2.Load(); err != nil {
		t.Fatal(err)
	} else if len(events) != 0 {
		t.Fatalf("clean close left %d unreplayed events", len(events))
	}
	m2, err := Open(Options{Workers: 1, Store: fs2})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	got, err := m2.History(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !historiesEqual(got, hist) {
		t.Fatalf("snapshot-only restore differs:\n got %+v\nwant %+v", got, hist)
	}
	if cur, err := m2.Get(st.ID); err != nil || cur.State != StateActive {
		t.Fatalf("restored session not active: %+v err=%v", cur, err)
	}
}

// BenchmarkStoreReplay measures crash recovery: loading the log and
// rebuilding every session's tuner from its journaled history.
func BenchmarkStoreReplay(b *testing.B) {
	dir := b.TempDir()
	fs, err := store.OpenFile(dir)
	if err != nil {
		b.Fatal(err)
	}
	m, err := Open(Options{Workers: 1, Store: fs, SnapshotEvery: 1 << 30})
	if err != nil {
		b.Fatal(err)
	}
	const sessions, observes = 16, 6
	for i := 0; i < sessions; i++ {
		st, err := m.Create(Spec{Backend: "bo", Workload: "K-means", Seed: uint64(i), MaxIterations: 8})
		if err != nil {
			b.Fatal(err)
		}
		for j := 0; j < observes; j++ {
			cfg, done, err := m.Suggest(st.ID)
			if err != nil {
				b.Fatal(err)
			}
			if done {
				break
			}
			if _, err := m.Observe(st.ID, Observation{Config: cfg, RuntimeSec: 100 + float64(i*7+j)}); err != nil {
				b.Fatal(err)
			}
		}
	}
	crash(m)

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fs2, err := store.OpenFile(dir)
		if err != nil {
			b.Fatal(err)
		}
		m2 := newManager(Options{Workers: 1, Store: fs2})
		snap, events, err := fs2.Load()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := m2.restore(snap, events); err != nil {
			b.Fatal(err)
		}
		if m2.Len() != sessions {
			b.Fatalf("restored %d sessions, want %d", m2.Len(), sessions)
		}
		if err := fs2.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// TestObservationCounterSurvivesSnapshotRestore: the lifetime observation
// counter is carried by the snapshot, not recounted from live histories.
func TestObservationCounterSurvivesSnapshotRestore(t *testing.T) {
	dir := t.TempDir()
	fs, err := store.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	m1, err := Open(Options{Workers: 1, Store: fs})
	if err != nil {
		t.Fatal(err)
	}
	st, err := m1.Create(Spec{Backend: "bo", Workload: "SVM", Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 3; step++ {
		cfg, _, err := m1.Suggest(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m1.Observe(st.ID, Observation{Config: cfg, RuntimeSec: 90 + float64(step)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := m1.Snapshot(); err != nil {
		t.Fatal(err)
	}
	// One more observation after the snapshot: replay stitches log on top.
	cfg, _, err := m1.Suggest(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m1.Observe(st.ID, Observation{Config: cfg, RuntimeSec: 89}); err != nil {
		t.Fatal(err)
	}
	crash(m1)

	fs2, err := store.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Open(Options{Workers: 1, Store: fs2})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if n := m2.Metrics().Observations; n != 4 {
		t.Fatalf("observation counter after snapshot+log restore = %d, want 4", n)
	}
}

// TestTombstonePruning: compaction drops tombstones whose close event it
// folded in (the log can no longer resurrect them) and keeps the rest, so
// the tombstone set does not grow with lifetime session count.
func TestTombstonePruning(t *testing.T) {
	fs := store.NewMem()
	m, err := Open(Options{Workers: 1, Store: fs, SnapshotEvery: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	var closed []string
	for i := 0; i < 6; i++ {
		st, err := m.Create(Spec{Backend: "bo", Workload: "SVM", Seed: uint64(i)})
		if err != nil {
			t.Fatal(err)
		}
		if err := m.CloseSession(st.ID); err != nil {
			t.Fatal(err)
		}
		closed = append(closed, st.ID)
	}
	if err := m.Snapshot(); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, sh := range m.shards {
		sh.mu.RLock()
		total += len(sh.closed)
		sh.mu.RUnlock()
	}
	if total != 0 {
		t.Fatalf("%d tombstones survived compaction, want 0 (all close events folded in)", total)
	}
	// Pruned tombstones lose close-idempotency (ErrNotFound again), but
	// replay safety holds: the compacted log has no creates to resurrect.
	snap, events, err := fs.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Closed) != 0 || len(events) != 0 {
		t.Fatalf("snapshot kept %d tombstones, log kept %d events", len(snap.Closed), len(events))
	}
	m2 := newManager(Options{Workers: 1, Store: fs})
	if _, err := m2.restore(snap, events); err != nil {
		t.Fatal(err)
	}
	for _, id := range closed {
		if _, err := m2.get(id); err != ErrNotFound {
			t.Fatalf("closed session %s resurrected after pruning", id)
		}
	}

	// Close + compact again: whether the tombstone is pruned or kept, the
	// session must stay gone after another restore.
	st, err := m.Create(Spec{Backend: "bo", Workload: "SVM", Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.CloseSession(st.ID); err != nil {
		t.Fatal(err)
	}
	if err := m.Snapshot(); err != nil {
		t.Fatal(err)
	}
	snap2, events2, err := fs.Load()
	if err != nil {
		t.Fatal(err)
	}
	m3 := newManager(Options{Workers: 1, Store: fs})
	if _, err := m3.restore(snap2, events2); err != nil {
		t.Fatal(err)
	}
	if _, err := m3.get(st.ID); err != ErrNotFound {
		t.Fatalf("closed session %s resurrected", st.ID)
	}
}

// TestRestoredUnsolicitedDDPG: a DDPG client that only reports unsolicited
// observations (never calls suggest) folds them into the RL state; the
// restored tuner must land in the same state and produce the same next
// suggestion as the live one.
func TestRestoredUnsolicitedDDPG(t *testing.T) {
	dir := t.TempDir()
	fs, err := store.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	m1, err := Open(Options{Workers: 1, Store: fs})
	if err != nil {
		t.Fatal(err)
	}
	st, err := m1.Create(Spec{Backend: "ddpg", Workload: "K-means", Seed: 3, MaxSteps: 6})
	if err != nil {
		t.Fatal(err)
	}
	// Replay historical runs without ever asking for a suggestion.
	for i, o := range []Observation{
		measure(t, "", "K-means", Observation{Config: conf.Default()}, 21),
		measure(t, "", "K-means", Observation{Config: conf.DefaultShuffle()}, 22),
	} {
		if _, err := m1.Observe(st.ID, o); err != nil {
			t.Fatalf("unsolicited observe %d: %v", i, err)
		}
	}
	cfg1, _, err := m1.Suggest(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	crash(m1)

	fs2, err := store.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Open(Options{Workers: 1, Store: fs2})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	cfg2, _, err := m2.Suggest(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if cfg1 != cfg2 {
		t.Fatalf("restored ddpg suggestion differs after unsolicited-only history:\n got %+v\nwant %+v", cfg2, cfg1)
	}
}

// TestRepositoryLifecyclePersists: the model repository is bounded by
// RepoCapacity with least-recently-matched eviction, warm-start matches
// bump the hit counters, and both counters survive a snapshot + restart.
// Evicted entries stay gone even though their harvest events may outlive
// them in the log.
func TestRepositoryLifecyclePersists(t *testing.T) {
	dir := t.TempDir()
	fs, err := store.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Workers: 1, RepoCapacity: 2}
	optsWithStore := opts
	optsWithStore.Store = fs
	m1, err := Open(optsWithStore)
	if err != nil {
		t.Fatal(err)
	}

	run := func(m *Manager, spec Spec) Status {
		st, err := m.Create(spec)
		if err != nil {
			t.Fatal(err)
		}
		return waitState(t, m, st.ID, StateDone)
	}
	// Entry 1: a cold PageRank model. Entry 2 warm-starts from it (one
	// repository hit). Entry 3 (K-means) overflows the capacity of 2.
	run(m1, Spec{Backend: "bo", Workload: "PageRank", Mode: ModeAuto, Seed: 1, MaxIterations: 4, WarmStart: true})
	warm := run(m1, Spec{Backend: "bo", Workload: "PageRank", Mode: ModeAuto, Seed: 2, MaxIterations: 4, WarmStart: true})
	if !warm.WarmStarted {
		t.Fatalf("second PageRank session not warm-started: %+v", warm)
	}
	// The matched entry carries its hit while both entries are live.
	var hits uint64
	for _, e := range m1.RepositoryReport().Entries {
		hits += e.Hits
	}
	if hits != 1 {
		t.Fatalf("entry hit bookkeeping: %d total hits, want 1", hits)
	}
	run(m1, Spec{Backend: "bo", Workload: "K-means", Mode: ModeAuto, Seed: 3, MaxIterations: 4})

	mt := m1.Metrics()
	if mt.RepoEntries != 2 || mt.RepoCapacity != 2 {
		t.Fatalf("repository not capped: %+v", mt)
	}
	if mt.RepoHits != 1 || mt.RepoEvictions != 1 {
		t.Fatalf("lifecycle counters: hits=%d evictions=%d, want 1/1", mt.RepoHits, mt.RepoEvictions)
	}
	rep := m1.RepositoryReport()
	if len(rep.Entries) != 2 || rep.Hits != 1 || rep.Evictions != 1 || rep.Capacity != 2 {
		t.Fatalf("repository report: %+v", rep)
	}
	for _, e := range rep.Entries {
		if len(e.Fingerprint) == 0 || e.Points == 0 || e.AddedAt.IsZero() {
			t.Fatalf("report entry incomplete: %+v", e)
		}
	}

	if err := m1.Snapshot(); err != nil {
		t.Fatal(err)
	}
	crash(m1)

	fs2, err := store.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	optsWithStore2 := opts
	optsWithStore2.Store = fs2
	m2, err := Open(optsWithStore2)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	mt2 := m2.Metrics()
	if mt2.RepoEntries != 2 || mt2.RepoHits != 1 || mt2.RepoEvictions != 1 {
		t.Fatalf("lifecycle state lost across restart: %+v", mt2)
	}
}

// TestClosedSessionsCostRecoveryNoTunerWork: recovery folds the log as data
// and builds a tuner only for a session still open at its end. Eight
// sessions that ran to completion and were closed before the crash must
// cost the restart no surrogate or acquisition work at all, while everything
// they left behind — counters, tombstones, harvested models — comes back.
func TestClosedSessionsCostRecoveryNoTunerWork(t *testing.T) {
	dir := t.TempDir()
	fs, err := store.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	m1, err := Open(Options{Workers: 1, Store: fs, SnapshotEvery: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	step := func(id, workload string, seed uint64) {
		t.Helper()
		cfg, _, err := m1.Suggest(id)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m1.Observe(id, measure(t, "", workload, Observation{Config: cfg}, seed)); err != nil {
			t.Fatal(err)
		}
	}
	var closed []string
	journaled := int64(0)
	for i := 0; i < 8; i++ {
		// Caller-assigned IDs: the counter namespace is refused outright, so
		// only these can show that the tombstones came back.
		spec := Spec{ID: fmt.Sprintf("finished-%d", i), Backend: []string{"bo", "gbo"}[i%2], Workload: "K-means", Seed: uint64(i + 1), MaxIterations: 3}
		st, err := m1.Create(spec)
		if err != nil {
			t.Fatal(err)
		}
		for !st.Done {
			step(st.ID, spec.Workload, uint64(100*i)+uint64(st.Evals))
			journaled++
			if st, err = m1.Get(st.ID); err != nil {
				t.Fatal(err)
			}
		}
		if err := m1.CloseSession(st.ID); err != nil {
			t.Fatal(err)
		}
		closed = append(closed, st.ID)
	}
	harvested := m1.Repository().Entries
	if len(harvested) != len(closed) {
		t.Fatalf("%d of %d completed sessions were harvested", len(harvested), len(closed))
	}
	open, err := m1.Create(Spec{Backend: "bo", Workload: "SVM", Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		step(open.ID, "SVM", uint64(900+i))
		journaled++
	}
	held, _, err := m1.Suggest(open.ID)
	if err != nil {
		t.Fatal(err)
	}
	crash(m1)

	reg := obs.NewRegistry()
	fs2, err := store.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Open(Options{Workers: 1, Store: fs2, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	for _, stage := range []string{"surrogate.refit", "surrogate.append", "acquisition"} {
		if n := reg.Histogram(stage).Snapshot().Count; n != 0 {
			t.Errorf("recovery recorded %d %s calls, want 0: a closed session must never get a tuner", n, stage)
		}
	}
	if m2.Len() != 1 {
		t.Fatalf("restored %d sessions, want only the open one", m2.Len())
	}
	if got := m2.Metrics().Observations; got != journaled {
		t.Fatalf("restored observation counter %d, want the %d journaled", got, journaled)
	}
	// Compared as the JSON the log carries: time.Time's monotonic reading
	// does not survive a round trip.
	want, _ := json.Marshal(harvested)
	if got, _ := json.Marshal(m2.Repository().Entries); string(got) != string(want) {
		t.Fatalf("restored repository differs from the %d entries harvested before the crash:\n got %s\nwant %s", len(harvested), got, want)
	}
	for _, id := range closed {
		if _, err := m2.Create(Spec{ID: id, Backend: "bo", Workload: "SVM"}); !errors.Is(err, ErrExists) {
			t.Fatalf("create with closed session's ID %s: %v, want ErrExists", id, err)
		}
	}
	if next, _, err := m2.Suggest(open.ID); err != nil || next != held {
		t.Fatalf("restored session suggests %+v (err %v), want the outstanding %+v", next, err, held)
	}
}
