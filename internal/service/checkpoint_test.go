package service

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"relm/internal/bo"
	"relm/internal/profile"
	"relm/internal/store"
)

// fullRepository is n distinct repository entries of a few prior points
// each: the state a node carries once §6.6 model re-use has filled up, and
// almost all of what a snapshot of it weighs.
func fullRepository(n int) []bo.RepoEntry {
	entries := make([]bo.RepoEntry, n)
	for i := range entries {
		e := bo.RepoEntry{
			Workload:    "K-means",
			ClusterName: "A",
			Fingerprint: profile.Stats{CPUAvg: 0.5, MhMB: 1024 + float64(i), H: 0.9},
			DefaultSec:  100 + float64(i),
		}
		for p := 0; p < 4; p++ {
			e.Points = append(e.Points, bo.PriorPoint{X: []float64{0.1 * float64(p), 0.5, 0.25, 0.75}, Y: 90 + float64(p)})
		}
		entries[i] = e
	}
	return entries
}

// waitSnapshots polls until the store has taken at least n compactions.
func waitSnapshots(t *testing.T, st store.Store, n uint64) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for st.Metrics().Snapshots < n {
		if time.Now().After(deadline) {
			t.Fatalf("compaction %d never happened: %+v", n, st.Metrics())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCheckpointAmortised pins what decides a checkpoint. Over a state that
// dwarfs SnapshotEvery events of log — a full model repository — checkpoints
// are taken only as the log outweighs them, so all of them together write no
// more than the log did plus one snapshot, whatever the snapshotter's
// timing. Over a small state every SnapshotEvery events still brings one,
// and a SnapshotEvery no log reaches brings none.
func TestCheckpointAmortised(t *testing.T) {
	stores := map[string]func(t *testing.T) store.Store{
		"mem": func(*testing.T) store.Store { return store.NewMem() },
		"file": func(t *testing.T) store.Store {
			fs, err := store.OpenFile(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			return fs
		},
	}
	// journalN journals n cheap events: suggests of one open session, served
	// from the tuner's cache.
	journalN := func(t *testing.T, m *Manager, id string, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if _, _, err := m.Suggest(id); err != nil {
				t.Fatal(err)
			}
		}
	}
	open := func(t *testing.T, st store.Store, every int) (*Manager, string) {
		t.Helper()
		m, err := Open(Options{Workers: 1, Store: st, SnapshotEvery: every})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { crash(m); st.Close() })
		s, err := m.Create(Spec{Backend: "relm", Workload: "K-means"})
		if err != nil {
			t.Fatal(err)
		}
		return m, s.ID
	}

	for name, newStore := range stores {
		t.Run(name+"/full repository", func(t *testing.T) {
			const every, events = 256, 20000
			st := newStore(t)
			m, id := open(t, st, every)
			if n := m.ImportRepository(fullRepository(1024)); n != 1024 {
				t.Fatalf("imported %d entries, want 1024", n)
			}
			journalN(t, m, id, events)
			waitSnapshots(t, st, 2)
			mt := st.Metrics()
			if mt.SnapshotBytesWritten > mt.AppendedBytes+mt.SnapshotBytes {
				t.Errorf("checkpoints wrote %d bytes for a log of %d (+ one snapshot of %d)", mt.SnapshotBytesWritten, mt.AppendedBytes, mt.SnapshotBytes)
			}
			// The events-only rule would have taken one per signal.
			signals := uint64(mt.Seq / every)
			if mt.Snapshots*4 > signals {
				t.Errorf("%d checkpoints over %d signals, log %d B, snapshot %d B", mt.Snapshots, signals, mt.AppendedBytes, mt.SnapshotBytes)
			}
			t.Logf("%d events, %d signals, %d checkpoints: log %d B, snapshots %d B, last %d B", mt.Seq, signals, mt.Snapshots, mt.AppendedBytes, mt.SnapshotBytesWritten, mt.SnapshotBytes)
		})
		t.Run(name+"/small state", func(t *testing.T) {
			const every = 64
			st := newStore(t)
			m, id := open(t, st, every)
			journalN(t, m, id, every-1) // the create was the first event
			for round := uint64(1); round <= 5; round++ {
				waitSnapshots(t, st, round)
				// Let Snapshot return: it ends by zeroing the event count.
				m.snapMu.Lock()
				m.snapMu.Unlock() //nolint:staticcheck // empty critical section is the barrier
				if got := st.Metrics().Snapshots; got != round {
					t.Fatalf("%d checkpoints after %d × SnapshotEvery events", got, round)
				}
				journalN(t, m, id, every)
			}
		})
		t.Run(name+"/never", func(t *testing.T) {
			st := newStore(t)
			m, id := open(t, st, 1<<30)
			journalN(t, m, id, 5000)
			if mt := st.Metrics(); mt.Snapshots != 0 || mt.SnapshotBytesWritten != 0 {
				t.Fatalf("SnapshotEvery 1<<30 checkpointed: %+v", mt)
			}
		})
	}
}

// TestIndentedSnapshotStillOpens: testdata/snapshot-indented.json is a
// snapshot.json as the last release to indent it wrote it (a cold auto
// session done and harvested, a warm-started GBO session with a suggestion
// outstanding, a DDPG session, the repository). A node started on it comes
// up with the same sessions, next suggestions, repository and counters, and
// its next checkpoint — the compact encoding — carries them all over.
func TestIndentedSnapshotStillOpens(t *testing.T) {
	fixture, err := os.ReadFile(filepath.Join("testdata", "snapshot-indented.json"))
	if err != nil {
		t.Fatal(err)
	}
	want := restoreState(t, true, fixture, nil)
	if len(want.Sessions) != 3 || len(want.Repo) != 1 || want.Counters[1] != 1 {
		t.Fatalf("fixture holds %d sessions, %d models, %d warm starts", len(want.Sessions), len(want.Repo), want.Counters[1])
	}

	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "snapshot.json"), fixture, 0o644); err != nil {
		t.Fatal(err)
	}
	fs, err := store.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := fs.SnapshotHash(); got != store.HashHex(fixture) {
		t.Fatalf("store names the indented snapshot %s, it hashes to %s", got, store.HashHex(fixture))
	}
	m, err := Open(Options{Workers: 1, Store: fs, SnapshotEvery: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if got := m.Len(); got != len(want.Sessions) {
		t.Fatalf("node came up with %d sessions, want %d", got, len(want.Sessions))
	}
	for id, ss := range want.Sessions {
		hist, err := m.History(id)
		if err != nil || !historiesEqual(hist, ss.History) {
			t.Errorf("%s: history differs (err %v)", id, err)
		}
	}
	if err := m.Snapshot(); err != nil {
		t.Fatal(err)
	}
	rewritten, err := os.ReadFile(filepath.Join(dir, "snapshot.json"))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(rewritten, []byte("\n")) || len(rewritten) >= len(fixture) {
		t.Errorf("the next checkpoint is %d bytes (fixture %d) and not one compact line", len(rewritten), len(fixture))
	}
	// A follower still holding the indented bytes is sent these: another name.
	if fs.SnapshotHash() == store.HashHex(fixture) {
		t.Error("the rewritten snapshot goes by the old one's hash")
	}
	if d := restoreState(t, true, rewritten, nil).diff(want); d != "" {
		t.Errorf("restored from the compact rewrite, not what the indented snapshot held:%s", d)
	}

	// Indentation was all the old encoding added.
	var packed bytes.Buffer
	if err := json.Compact(&packed, fixture); err != nil {
		t.Fatal(err)
	}
	var snap store.Snapshot
	if err := json.Unmarshal(fixture, &snap); err != nil {
		t.Fatal(err)
	}
	if again, err := json.Marshal(&snap); err != nil || !bytes.Equal(again, packed.Bytes()) {
		t.Errorf("decoding and re-encoding the fixture moved something besides whitespace (err %v)", err)
	}
}
