package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"relm/internal/store"
)

// These tests are the hand-over at the Manager level: ExtractHandoff
// replays a (copied) replica directory exactly like crash recovery, Drain
// cuts the live sessions loose, and a successor that Adopts either report
// must be bit-exact with the manager that gave the sessions up.

// copyDir clones a store directory — the stand-in for a fully caught-up
// replica (the shipper is byte-exact, see internal/replica).
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// driveSessions builds a journaled manager with a few active remote
// sessions (plus suggestions outstanding), and returns everything a
// successor must reproduce.
func driveSessions(t *testing.T, dir string) (ids []string, histories map[string][]HistoryEntry, nextSuggest map[string]string) {
	t.Helper()
	fs, err := store.OpenFile(dir, store.FileOptions{SegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	m, err := Open(Options{Workers: 1, Store: fs, NodeID: "a"})
	if err != nil {
		t.Fatal(err)
	}
	specs := []Spec{
		{Backend: "bo", Workload: "K-means", Seed: 3, MaxIterations: 8},
		{Backend: "gbo", Workload: "SortByKey", Seed: 4, MaxIterations: 8},
		{Backend: "ddpg", Workload: "PageRank", Seed: 5, MaxSteps: 8},
	}
	histories = make(map[string][]HistoryEntry)
	nextSuggest = make(map[string]string)
	for i, spec := range specs {
		st, err := m.Create(spec)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
		for step := 0; step < 3; step++ {
			cfg, done, err := m.Suggest(st.ID)
			if err != nil {
				t.Fatal(err)
			}
			if done {
				break
			}
			obs := measure(t, spec.Cluster, spec.Workload, Observation{Config: cfg}, uint64(70*i+step))
			if _, err := m.Observe(st.ID, obs); err != nil {
				t.Fatal(err)
			}
		}
		hist, err := m.History(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		histories[st.ID] = hist
		// Leave a suggestion outstanding — the kill happens mid-loop.
		cfg, _, err := m.Suggest(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		nextSuggest[st.ID] = fmt.Sprintf("%+v", cfg)
	}
	crash(m)
	return ids, histories, nextSuggest
}

// adoptAll installs every session of a hand-over report in m, the way a
// router's handOff does: one Adopt per session.
func adoptAll(t *testing.T, m *Manager, rep HandoffReport) {
	t.Helper()
	for _, ss := range rep.Sessions {
		if _, err := m.Adopt(ss); err != nil {
			t.Fatalf("adopt %s: %v", ss.ID, err)
		}
	}
}

// requireSuccessor asserts m serves each session's exact history and the
// exact suggestion the previous owner had outstanding.
func requireSuccessor(t *testing.T, m *Manager, ids []string, histories map[string][]HistoryEntry, nextSuggest map[string]string) {
	t.Helper()
	for _, id := range ids {
		hist, err := m.History(id)
		if err != nil {
			t.Fatal(err)
		}
		if !historiesEqual(hist, histories[id]) {
			t.Fatalf("session %s: handed-over history differs", id)
		}
		cfg, _, err := m.Suggest(id)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%+v", cfg); got != nextSuggest[id] {
			t.Fatalf("session %s: successor suggests %s, previous owner would have suggested %s", id, got, nextSuggest[id])
		}
	}
}

// TestPromotionReplayBitMatch is the heart of fail-over correctness: a
// successor that adopts the replica's hand-over report serves the same
// histories AND the same next suggestion as the killed node would have —
// and so does the successor's own crash recovery, because Adopt journaled
// the sessions like any others.
func TestPromotionReplayBitMatch(t *testing.T) {
	dir := t.TempDir()
	ids, histories, nextSuggest := driveSessions(t, dir)

	rep, err := ExtractHandoff(copyDir(t, dir), "a")
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Sessions) != len(ids) {
		t.Fatalf("hand-off recovered %d sessions, want %d", len(rep.Sessions), len(ids))
	}
	m2 := newTestManager(t, Options{Workers: 1, NodeID: "b"})
	adoptAll(t, m2, rep)
	requireSuccessor(t, m2, ids, histories, nextSuggest)

	// adopt → crash → reopen: the successor's WAL alone rebuilds them.
	succDir := t.TempDir()
	fs, err := store.OpenFile(succDir, store.FileOptions{SegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	m3, err := Open(Options{Workers: 1, NodeID: "c", Store: fs})
	if err != nil {
		t.Fatal(err)
	}
	adoptAll(t, m3, rep)
	crash(m3)
	fs2, err := store.OpenFile(succDir)
	if err != nil {
		t.Fatal(err)
	}
	m4, err := Open(Options{Workers: 1, NodeID: "c", Store: fs2})
	if err != nil {
		t.Fatal(err)
	}
	defer m4.Close()
	requireSuccessor(t, m4, ids, histories, nextSuggest)
}

// TestHandoffOfAnUnharvestedSessionIsDeterministic: a session finished
// but its advisory harvest record failed to append, so the replay
// harvests it again. The hand-over must still be a pure function of the
// directory — the harvested model stamped from the log, not the clock of
// the replay.
func TestHandoffOfAnUnharvestedSessionIsDeterministic(t *testing.T) {
	m, dir := fileStoreManager(t, store.FileOptions{})
	st, err := m.Create(Spec{Backend: "bo", Workload: "SVM", Seed: 3, MaxIterations: 1,
		Stats: clusterStats(), DefaultRuntimeSec: 240})
	if err != nil {
		t.Fatal(err)
	}
	for !st.Done {
		cfg, _, err := m.Suggest(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		// The observe appends; the harvest the last one triggers fails.
		armFaultAfter(t, "store.write", 1)
		if st, err = m.Observe(st.ID, Observation{Config: cfg, RuntimeSec: 120}); err != nil {
			t.Fatal(err)
		}
	}
	if mt := m.Metrics(); mt.JournalError == "" {
		t.Fatal("the harvest record was appended; the test needs it lost")
	}
	crash(m)

	var replays [2][]byte
	for i := range replays {
		rep, err := ExtractHandoff(dir, "a")
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Repo) != 1 {
			t.Fatalf("replay %d harvested %d models, want 1", i, len(rep.Repo))
		}
		if replays[i], err = json.Marshal(rep); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(replays[0], replays[1]) {
		t.Fatalf("two replays of one directory differ:\n%s\n%s", replays[0], replays[1])
	}
}

// TestHandoffOfUnharvestedSessionsIsDeterministic: four sessions finished
// with their harvest records lost, so the replay harvests all four again.
// They must enter the repository in the same order on every replay —
// session-ID order, not the order a map or the rebuild workers yield them.
func TestHandoffOfUnharvestedSessionsIsDeterministic(t *testing.T) {
	m, dir := fileStoreManager(t, store.FileOptions{})
	for i, wl := range []string{"SVM", "PageRank", "WordCount", "K-means"} {
		st, err := m.Create(Spec{Backend: "bo", Workload: wl, Seed: uint64(3 + i), MaxIterations: 1,
			Stats: clusterStats(), DefaultRuntimeSec: 240})
		if err != nil {
			t.Fatal(err)
		}
		for !st.Done {
			cfg, _, err := m.Suggest(st.ID)
			if err != nil {
				t.Fatal(err)
			}
			// The observe appends; the harvest the last one triggers fails.
			armFaultAfter(t, "store.write", 1)
			if st, err = m.Observe(st.ID, Observation{Config: cfg, RuntimeSec: 120 + float64(10*i)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if n := len(m.Repository().Entries); n != 4 {
		t.Fatalf("live manager harvested %d models, want 4", n)
	}
	crash(m)

	var first []byte
	for i := range 10 {
		rep, err := ExtractHandoff(dir, "a")
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Repo) != 4 {
			t.Fatalf("replay %d harvested %d models, want 4 (a harvest record was not lost)", i, len(rep.Repo))
		}
		got, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = got
		} else if !bytes.Equal(got, first) {
			t.Fatalf("replay %d of one directory differs from replay 0:\n%s\n%s", i, got, first)
		}
	}
}

// TestPromotionTornTail: the primary was killed mid-append (or the
// follower mid-ingest), so the replica's active segment ends in a torn
// line. Promotion must truncate it and recover every complete record —
// the same guarantee local crash recovery gives.
func TestPromotionTornTail(t *testing.T) {
	dir := t.TempDir()
	ids, histories, _ := driveSessions(t, dir)

	replica := copyDir(t, dir)
	segs, err := store.ListSegmentFiles(replica)
	if err != nil || len(segs) == 0 {
		t.Fatalf("list segments: %v", err)
	}
	active := filepath.Join(replica, store.SegmentFileName(segs[len(segs)-1].Index))
	f, err := os.OpenFile(active, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"seq":999999,"type":"observe","id":"s`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	rep, err := ExtractHandoff(replica, "a")
	if err != nil {
		t.Fatalf("torn tail must replay, got %v", err)
	}
	if len(rep.Sessions) != len(ids) {
		t.Fatalf("recovered %d sessions, want %d", len(rep.Sessions), len(ids))
	}
	for _, hs := range rep.Sessions {
		if !historiesEqual(hs.History, histories[hs.ID]) {
			t.Fatalf("session %s: torn tail corrupted the recovered history", hs.ID)
		}
	}
}

// TestPromotionMidRotationPrefix: the replica caught only a byte prefix of
// the log (the primary died mid-rotation, before the tail shipped). The
// prefix must replay cleanly — fewer observations, no errors.
func TestPromotionMidRotationPrefix(t *testing.T) {
	dir := t.TempDir()
	ids, _, _ := driveSessions(t, dir)

	replica := copyDir(t, dir)
	segs, err := store.ListSegmentFiles(replica)
	if err != nil {
		t.Fatal(err)
	}
	last := segs[len(segs)-1]
	if err := os.Truncate(filepath.Join(replica, store.SegmentFileName(last.Index)), last.Bytes/2); err != nil {
		t.Fatal(err)
	}

	rep, err := ExtractHandoff(replica, "a")
	if err != nil {
		t.Fatalf("prefix replica must replay, got %v", err)
	}
	if len(rep.Sessions) == 0 || len(rep.Sessions) > len(ids) {
		t.Fatalf("prefix recovered %d sessions, want 1..%d", len(rep.Sessions), len(ids))
	}
}

// TestPromotionSealedCorruptionIsLoud: flipping bytes inside a SEALED
// replica segment is not a crash artifact — it is data loss, and
// promotion must refuse loudly instead of serving silently shortened
// histories.
func TestPromotionSealedCorruptionIsLoud(t *testing.T) {
	dir := t.TempDir()
	driveSessions(t, dir)

	replica := copyDir(t, dir)
	segs, err := store.ListSegmentFiles(replica)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 2 {
		t.Fatalf("need a sealed segment, got %d segments", len(segs))
	}
	sealed := filepath.Join(replica, store.SegmentFileName(segs[0].Index))
	data, err := os.ReadFile(sealed)
	if err != nil {
		t.Fatal(err)
	}
	// Break the first record: sealed segments are read strictly, so one
	// undecodable line must fail the whole promotion.
	data[0] = 'x'
	if err := os.WriteFile(sealed, data, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := ExtractHandoff(replica, "a"); err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("sealed corruption replayed silently: err=%v", err)
	}
}
