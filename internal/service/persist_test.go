package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"relm/internal/bo"
	"relm/internal/conf"
	"relm/internal/obs"
	"relm/internal/sim/cluster"
	"relm/internal/sim/workload"
	"relm/internal/store"
	"relm/internal/tune"
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

// restoreCopy opens a copy of a crashed manager's directory with restore
// running on the given number of cores.
func restoreCopy(t *testing.T, dir string, procs int) *Manager {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	return reopen(t, copyDir(t, dir))
}

// TestRestoreOnEveryCoreMatchesOneCore: restore rebuilds sessions on every
// core, each rebuild reading only its own session's record. A log of open
// sessions on all four backends — cold and warm-started, remote and auto —
// reopens on four cores to exactly what it reopens to on one: statuses,
// histories, the next suggestion, and the one after an identical
// observation.
func TestRestoreOnEveryCoreMatchesOneCore(t *testing.T) {
	dir := t.TempDir()
	fs, err := store.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Open(Options{Workers: 1, Store: fs})
	if err != nil {
		t.Fatal(err)
	}
	sp := tune.NewSpace(cluster.A(), workload.KMeans())
	entry := bo.RepoEntry{Workload: "K-means", ClusterName: "A", Fingerprint: *clusterStats(), DefaultSec: 150}
	for i := range 3 {
		cfg := conf.Default()
		cfg.CacheCapacity = 0.2 + 0.2*float64(i)
		entry.Points = append(entry.Points, bo.PriorPoint{X: sp.Encode(cfg), Cfg: cfg, Y: 150 - 20*float64(i)})
	}
	if n, err := m.ImportRepository([]bo.RepoEntry{entry}); n != 1 || err != nil {
		t.Fatalf("imported %d entries, err %v", n, err)
	}
	backends := []string{"relm", "ddpg", "bo", "gbo"}
	workloads := []string{"PageRank", "K-means", "SVM", "WordCount"}
	var ids []string
	for i := range 24 {
		spec := Spec{Backend: backends[i%4], Workload: workloads[i/4%4], Seed: uint64(i), MaxIterations: 12, MaxSteps: 12}
		if i%8 >= 6 { // bo and gbo, every other round
			spec.Workload, spec.WarmStart, spec.Stats, spec.DefaultRuntimeSec = "K-means", true, clusterStats(), 150
		}
		st, err := m.Create(spec)
		if err != nil {
			t.Fatal(err)
		}
		if spec.WarmStart && !st.WarmStarted {
			t.Fatalf("%s session %s not warm-started", spec.Backend, st.ID)
		}
		ids = append(ids, st.ID)
		steps := i % 5
		if spec.Backend == "relm" {
			steps = min(steps, 1) // RelM converges in a few steps
		}
		for step := range steps {
			cfg, _, err := m.Suggest(st.ID)
			if err != nil {
				t.Fatal(err)
			}
			if st, err = m.Observe(st.ID, measure(t, "", spec.Workload, Observation{Config: cfg}, uint64(10*i+step))); err != nil {
				t.Fatal(err)
			}
		}
		if st.Done {
			t.Fatalf("%s session %s finished; the test needs it open", spec.Backend, st.ID)
		}
	}
	auto, err := m.Create(Spec{Backend: "bo", Workload: "SVM", Mode: ModeAuto, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	crash(m) // wherever the worker had got to, both reopens read the same log

	one, four := restoreCopy(t, dir, 1), restoreCopy(t, dir, 4)
	if one.Len() != len(ids)+1 || four.Len() != one.Len() {
		t.Fatalf("restored %d sessions on one core, %d on four, want %d", one.Len(), four.Len(), len(ids)+1)
	}
	for i, id := range ids {
		st1, err1 := one.Get(id)
		st4, err4 := four.Get(id)
		if err1 != nil || err4 != nil || !reflect.DeepEqual(st1, st4) {
			t.Fatalf("session %s status on one core %+v (%v), on four %+v (%v)", id, st1, err1, st4, err4)
		}
		h1, _ := one.History(id)
		h4, _ := four.History(id)
		if !historiesEqual(h1, h4) {
			t.Fatalf("session %s history differs between one core and four", id)
		}
		for round := range 2 {
			cfg1, done1, err1 := one.Suggest(id)
			cfg4, done4, err4 := four.Suggest(id)
			if err1 != nil || err4 != nil || cfg1 != cfg4 || done1 != done4 {
				t.Fatalf("session %s round %d: one core suggests %+v done=%v (%v), four %+v done=%v (%v)",
					id, round, cfg1, done1, err1, cfg4, done4, err4)
			}
			if round == 1 || done1 {
				break
			}
			o := measure(t, "", st1.Workload, Observation{Config: cfg1}, uint64(1000+i))
			if _, err := one.Observe(id, o); err != nil {
				t.Fatal(err)
			}
			if _, err := four.Observe(id, o); err != nil {
				t.Fatal(err)
			}
		}
	}
	waitState(t, one, auto.ID, StateDone)
	waitState(t, four, auto.ID, StateDone)
	h1, _ := one.History(auto.ID)
	h4, _ := four.History(auto.ID)
	if len(h1) == 0 || !historiesEqual(h1, h4) {
		t.Fatalf("auto session %s: %d runs on one core, %d on four, or they differ", auto.ID, len(h1), len(h4))
	}
}

// TestUnrebuildableSessionFailsAloneOnAWorker: two sessions whose recorded
// prior points have the wrong dimension panic inside rebuildSession, now on
// a rebuild worker. The panic stays in its session: every good session is
// restored, and the journal error names the same bad session on every open,
// whatever order the workers finished in.
func TestUnrebuildableSessionFailsAloneOnAWorker(t *testing.T) {
	dir := t.TempDir()
	fs, err := store.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Open(Options{Workers: 1, Store: fs})
	if err != nil {
		t.Fatal(err)
	}
	histories := make(map[string][]HistoryEntry)
	for i := range 12 {
		spec := Spec{Backend: []string{"bo", "gbo", "relm"}[i%3], Workload: "K-means", Seed: uint64(i), MaxIterations: 12}
		st, err := m.Create(spec)
		if err != nil {
			t.Fatal(err)
		}
		for step := range 2 {
			cfg, _, err := m.Suggest(st.ID)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := m.Observe(st.ID, measure(t, "", spec.Workload, Observation{Config: cfg}, uint64(10*i+step))); err != nil {
				t.Fatal(err)
			}
		}
		if histories[st.ID], err = m.History(st.ID); err != nil {
			t.Fatal(err)
		}
	}
	// Journaled as records from another build would be: a warm start whose
	// points are one coordinate long, then the confirmation run of the
	// prior's best, whose observation fits the surrogate on them.
	now := time.Now()
	for _, id := range []string{"sess-50", "sess-51"} { // sort among the good ones
		cfg := conf.Default()
		ss := store.SessionSnapshot{ID: id, Spec: Spec{Backend: "bo", Workload: "K-means", Seed: 1}, Created: now, LastUsed: now,
			Warm:    &store.Warm{Source: "K-means", Cluster: "A", Points: []bo.PriorPoint{{X: []float64{0.5}, Cfg: cfg, Y: 100}}},
			History: []HistoryEntry{{Observation: store.Observation{Config: cfg, RuntimeSec: 100}, Objective: 100}}}
		if _, err := m.journal(&store.Event{Type: store.EventCreate, ID: id, Time: now, Session: &ss}); err != nil {
			t.Fatal(err)
		}
	}
	crash(m)

	for open := range 5 {
		m := restoreCopy(t, dir, 4)
		if m.Len() != len(histories) {
			t.Fatalf("open %d restored %d sessions, want the %d good ones", open, m.Len(), len(histories))
		}
		for id, want := range histories {
			if got, err := m.History(id); err != nil || !historiesEqual(got, want) {
				t.Fatalf("open %d: good session %s not restored whole (err %v)", open, id, err)
			}
		}
		if msg := m.Metrics().JournalError; !strings.HasPrefix(msg, "restore session sess-51: ") || !strings.Contains(msg, "does not replay") {
			t.Fatalf("open %d: journal error %q, want the rebuild failure of sess-51", open, msg)
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

// TestHarvestedForgottenAtTheFence: a node that harvests and compacts for
// ever remembers only the harvests its last compaction did not cover, in
// memory and in the snapshot. Restoring that snapshot gives the repository
// whatever part of the log underneath survived. So does a snapshot listing
// every ID ever harvested, as older builds wrote it.
func TestHarvestedForgottenAtTheFence(t *testing.T) {
	tp := &tape{Store: store.NewMem()}
	m, err := Open(Options{Workers: 1, Store: tp, SnapshotEvery: 1 << 30, RepoCapacity: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	remembered := func() int {
		m.repoMu.Lock()
		defer m.repoMu.Unlock()
		return len(m.harvested)
	}
	const perRound = 3
	var everHarvested []string
	var snap *store.Snapshot
	for round := 0; round < 6; round++ {
		for i := 0; i < perRound; i++ {
			st, err := m.Create(Spec{Backend: "bo", Workload: "SVM", Mode: ModeAuto, Seed: uint64(10*round + i), MaxIterations: 1})
			if err != nil {
				t.Fatal(err)
			}
			waitState(t, m, st.ID, StateDone)
			if err := m.CloseSession(st.ID); err != nil {
				t.Fatal(err)
			}
			everHarvested = append(everHarvested, st.ID)
		}
		if n := remembered(); n != perRound {
			t.Fatalf("round %d: %d harvested IDs remembered, want the %d since the last compaction", round, n, perRound)
		}
		if err := m.Snapshot(); err != nil {
			t.Fatal(err)
		}
		if snap, _, err = tp.Load(); err != nil {
			t.Fatal(err)
		}
		if n := remembered(); n != 0 || len(snap.Harvested) != 0 {
			t.Fatalf("round %d: after compaction %d IDs remembered, %d in the snapshot; want 0, 0", round, n, len(snap.Harvested))
		}
	}

	// One more round the snapshot does not cover, then restore. Every
	// harvest event below the fence — as a kept segment would still hold
	// them — must not bring back a model the repository evicted.
	var tail []store.Event
	for i := 0; i < perRound; i++ {
		st, err := m.Create(Spec{Backend: "bo", Workload: "K-means", Mode: ModeAuto, Seed: uint64(100 + i), MaxIterations: 1})
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, m, st.ID, StateDone)
	}
	for _, ev := range tp.events {
		if ev.Seq > snap.Fence {
			tail = append(tail, ev)
		}
	}
	newJSON, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	// restoreState's manager has the default capacity: the snapshot's four
	// models plus the tail's.
	want := restoreState(t, true, newJSON, tail)
	if len(want.Repo) != 4+perRound || len(want.Harvested) != perRound {
		t.Fatalf("restored %d models, %d harvested IDs; want %d, %d", len(want.Repo), len(want.Harvested), 4+perRound, perRound)
	}
	if got := restoreState(t, true, newJSON, tp.events); !reflect.DeepEqual(got.Repo, want.Repo) {
		t.Fatalf("the log below the fence changed the repository the snapshot restores to: %d models, want %d", len(got.Repo), len(want.Repo))
	}
	old := *snap
	old.Harvested = everHarvested
	oldJSON, err := json.Marshal(&old)
	if err != nil {
		t.Fatal(err)
	}
	got := restoreState(t, true, oldJSON, tail)
	got.Harvested = want.Harvested
	if d := got.diff(want); d != "" {
		t.Fatalf("a snapshot listing every harvested ID restores differently:%s", d)
	}
	if got := restoreState(t, true, oldJSON, tp.events); !reflect.DeepEqual(got.Repo, want.Repo) {
		t.Fatalf("a snapshot listing every harvested ID, under the whole log, restores another repository: %d models, want %d", len(got.Repo), len(want.Repo))
	}
}

// TestRestoredUnsolicitedDDPG: a DDPG client that never calls suggest. Its
// first observation, the default configuration the tuner holds pending,
// seeds the RL state and draws the next action; the second, off that
// action, is unsolicited and leaves both alone. The restored tuner must
// land in the same state and produce the same next suggestion as the live
// one.
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

// TestSuggestJournalsNothing: a suggestion changes no tuner state, so
// Manager.Suggest appends no record — asked once or three times, before the
// first observation or between two.
func TestSuggestJournalsNothing(t *testing.T) {
	tp := &tape{Store: store.NewMem()}
	m := newTestManager(t, Options{Workers: 1, Store: tp})
	for _, backend := range []string{"relm", "bo", "gbo", "ddpg"} {
		st, err := m.Create(Spec{Backend: backend, Workload: "K-means", Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		for round := uint64(0); round < 3; round++ {
			before := len(tp.events)
			var cfg conf.Config
			for range round + 1 {
				if cfg, _, err = m.Suggest(st.ID); err != nil {
					t.Fatal(err)
				}
			}
			if n := len(tp.events) - before; n != 0 {
				t.Fatalf("%s: %d suggests appended %d records: %+v", backend, round+1, n, tp.events[before:])
			}
			if _, err := m.Observe(st.ID, measure(t, "", "K-means", Observation{Config: cfg}, round)); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestResumeNeedsNoSuggestRecord: a node reopened from a log that holds no
// suggest record — none is written now, and an old log may have lost its
// last one — resumes where the dead node stood. Each backend runs 2 steps
// and leaves a suggestion outstanding; the log is reopened with every
// suggest record removed, the outstanding configuration is observed, and 2
// more steps run. The suggestions must be the uninterrupted twin's.
func TestResumeNeedsNoSuggestRecord(t *testing.T) {
	for _, backend := range []string{"relm", "bo", "gbo", "ddpg"} {
		t.Run(backend, func(t *testing.T) {
			spec := Spec{ID: "s-" + backend, Backend: backend, Workload: "K-means", Seed: 4, MaxIterations: 8, MaxSteps: 8}
			suggest := func(m *Manager) conf.Config {
				t.Helper()
				cfg, _, err := m.Suggest(spec.ID)
				if err != nil {
					t.Fatal(err)
				}
				return cfg
			}
			observe := func(m *Manager, cfg conf.Config, seed uint64) {
				t.Helper()
				if _, err := m.Observe(spec.ID, measure(t, "", spec.Workload, Observation{Config: cfg}, seed)); err != nil {
					t.Fatal(err)
				}
			}
			head := func(m *Manager) conf.Config {
				t.Helper()
				if _, err := m.Create(spec); err != nil {
					t.Fatal(err)
				}
				for i := range uint64(2) {
					observe(m, suggest(m), i)
				}
				return suggest(m)
			}
			tail := func(m *Manager, outstanding conf.Config) []conf.Config {
				t.Helper()
				observe(m, outstanding, 2)
				var trace []conf.Config
				for i := range uint64(2) {
					cfg := suggest(m)
					trace = append(trace, cfg)
					observe(m, cfg, 3+i)
				}
				return append(trace, suggest(m))
			}
			twin := newTestManager(t, Options{Workers: 1})
			want := tail(twin, head(twin))

			mem := store.NewMem()
			m1, err := Open(Options{Workers: 1, Store: mem})
			if err != nil {
				t.Fatal(err)
			}
			outstanding := head(m1)
			crash(m1)
			_, events, err := mem.Load()
			if err != nil {
				t.Fatal(err)
			}
			stripped := store.NewMem()
			for _, ev := range events {
				if ev.Type != "suggest" {
					if _, err := stripped.Append(&ev); err != nil {
						t.Fatal(err)
					}
				}
			}
			m2, err := Open(Options{Workers: 1, Store: stripped})
			if err != nil {
				t.Fatal(err)
			}
			defer m2.Close()
			if got := tail(m2, outstanding); !reflect.DeepEqual(got, want) {
				t.Fatalf("suggestions after the reopen diverge from the uninterrupted twin:\n got %+v\nwant %+v", got, want)
			}
		})
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
