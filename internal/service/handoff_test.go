package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"testing"

	"relm/internal/bo"
	"relm/internal/conf"
	"relm/internal/fault"
	"relm/internal/store"
)

// donorSnapshot drives a remote session for n suggest/observe rounds on a
// throwaway manager, drains it, and returns the session's hand-over
// snapshot. models are imported into the donor's repository first, for a
// spec that asks to be warm-started from them.
func donorSnapshot(t *testing.T, spec Spec, n int, models ...bo.RepoEntry) store.SessionSnapshot {
	t.Helper()
	donor := newTestManager(t, Options{Workers: 1, NodeID: "donor"})
	donor.ImportRepository(models)
	st, err := donor.Create(spec)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		cfg, _, err := donor.Suggest(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := donor.Observe(st.ID, measure(t, spec.Cluster, spec.Workload, Observation{Config: cfg}, uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	rep := donor.Drain()
	if len(rep.Sessions) != 1 || len(rep.Sessions[0].History) != n {
		t.Fatalf("donor hand-over: %+v", rep.Sessions)
	}
	return rep.Sessions[0]
}

// TestOutstandingSuggestionSurvivesRebuild: a suggestion handed out but not
// yet observed when the session is snapshotted must still be outstanding in
// the rebuilt session — whether the snapshot came back through crash
// recovery (the suggest event itself compacted away) or through Adopt.
// Otherwise the next observation takes the unsolicited branch: its history
// entry records Suggested=false on every backend, and DDPG's later
// suggestions diverge from an uninterrupted run.
func TestOutstandingSuggestionSurvivesRebuild(t *testing.T) {
	for _, backend := range []string{"relm", "bo", "gbo", "ddpg"} {
		spec := Spec{ID: "s-" + backend, Backend: backend, Workload: "K-means", Seed: 9, MaxIterations: 8, MaxSteps: 8}
		step := func(m *Manager, cfg conf.Config, seed uint64) {
			t.Helper()
			if _, err := m.Observe(spec.ID, measure(t, "", spec.Workload, Observation{Config: cfg}, seed)); err != nil {
				t.Fatal(err)
			}
		}
		suggest := func(m *Manager) conf.Config {
			t.Helper()
			cfg, _, err := m.Suggest(spec.ID)
			if err != nil {
				t.Fatal(err)
			}
			return cfg
		}
		// head: create → suggest+observe → suggest, left outstanding.
		head := func(m *Manager) conf.Config {
			t.Helper()
			if _, err := m.Create(spec); err != nil {
				t.Fatal(err)
			}
			step(m, suggest(m), 1)
			return suggest(m)
		}
		// tail: observe the outstanding suggestion → suggest+observe →
		// suggest; returns what was suggested and the final history.
		tail := func(m *Manager, outstanding conf.Config) (string, []HistoryEntry) {
			t.Helper()
			step(m, outstanding, 2)
			third := suggest(m)
			step(m, third, 3)
			fourth := suggest(m)
			hist, err := m.History(spec.ID)
			if err != nil {
				t.Fatal(err)
			}
			return fmt.Sprintf("%+v / %+v", third, fourth), hist
		}

		twin := newTestManager(t, Options{Workers: 1})
		wantTrace, wantHist := tail(twin, head(twin))
		check := func(t *testing.T, m *Manager, outstanding conf.Config) {
			t.Helper()
			trace, hist := tail(m, outstanding)
			if !historiesEqual(hist, wantHist) {
				t.Fatalf("history differs from the uninterrupted twin:\n got %+v\nwant %+v", hist, wantHist)
			}
			if trace != wantTrace {
				t.Fatalf("suggestions after the rebuild diverge:\n got %s\nwant %s", trace, wantTrace)
			}
		}

		t.Run(backend+"/snapshot-restore", func(t *testing.T) {
			mem := store.NewMem()
			m1, err := Open(Options{Workers: 1, Store: mem})
			if err != nil {
				t.Fatal(err)
			}
			outstanding := head(m1)
			if err := m1.Snapshot(); err != nil {
				t.Fatal(err)
			}
			crash(m1)
			m2, err := Open(Options{Workers: 1, Store: mem})
			if err != nil {
				t.Fatal(err)
			}
			defer m2.Close()
			check(t, m2, outstanding)
		})
		t.Run(backend+"/adopt", func(t *testing.T) {
			m1 := newTestManager(t, Options{Workers: 1, NodeID: "a"})
			outstanding := head(m1)
			rep := m1.Drain()
			if len(rep.Sessions) != 1 || !rep.Sessions[0].Suggested {
				t.Fatalf("drain did not hand over the armed session: %+v", rep.Sessions)
			}
			m2 := newTestManager(t, Options{Workers: 1, NodeID: "b"})
			adoptAll(t, m2, rep)
			check(t, m2, outstanding)
		})
	}
}

// TestAdoptGates: Adopt registers through the gates Create does and adds
// its own — only a non-terminal snapshot with a usable ID gets in, and a
// refusal leaves nothing behind.
func TestAdoptGates(t *testing.T) {
	ss := donorSnapshot(t, Spec{ID: "moved-1", Backend: "bo", Workload: "SVM", Seed: 4}, 2)
	m := newTestManager(t, Options{Workers: 1, NodeID: "b", MaxSessions: 2})

	st, err := m.Adopt(ss)
	if err != nil {
		t.Fatal(err)
	}
	if st.ID != "moved-1" || st.Node != "b" || st.Evals != 2 || st.State != StateActive {
		t.Fatalf("adopted status: %+v", st)
	}
	if mt := m.Metrics(); mt.Observations != 2 {
		t.Fatalf("adopted history not counted: %d observations", mt.Observations)
	}
	if _, err := m.Adopt(ss); !errors.Is(err, ErrExists) {
		t.Fatalf("adopting a live ID: %v, want ErrExists", err)
	}
	if err := m.CloseSession(ss.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Adopt(ss); !errors.Is(err, ErrExists) {
		t.Fatalf("adopting a tombstoned ID: %v, want ErrExists", err)
	}

	variant := func(mut func(*store.SessionSnapshot)) store.SessionSnapshot {
		v := ss
		v.ID = "moved-2"
		mut(&v)
		return v
	}
	for name, bad := range map[string]store.SessionSnapshot{
		"terminal state":    variant(func(v *store.SessionSnapshot) { v.State = StateDone }),
		"no state":          variant(func(v *store.SessionSnapshot) { v.State = "" }),
		"illegal ID":        variant(func(v *store.SessionSnapshot) { v.ID = "no/slash" }),
		"counter namespace": variant(func(v *store.SessionSnapshot) { v.ID = "b-sess-7" }),
		"unknown workload":  variant(func(v *store.SessionSnapshot) { v.Spec.Workload = "NoSuchApp" }),
		"unknown mode":      variant(func(v *store.SessionSnapshot) { v.Spec.Mode = "psychic" }),
	} {
		if _, err := m.Adopt(bad); err == nil || errors.Is(err, ErrExists) {
			t.Errorf("%s: Adopt = %v, want a validation error", name, err)
		}
	}
	if m.Len() != 0 {
		t.Fatalf("refused adopts leaked %d sessions", m.Len())
	}

	for _, id := range []string{"moved-2", "moved-3"} {
		if _, err := m.Adopt(variant(func(v *store.SessionSnapshot) { v.ID = id })); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Adopt(variant(func(v *store.SessionSnapshot) { v.ID = "moved-4" })); !errors.Is(err, ErrTooMany) {
		t.Fatalf("adopt past MaxSessions: %v, want ErrTooMany", err)
	}
	m.Drain()
	if _, err := m.Adopt(variant(func(v *store.SessionSnapshot) { v.ID = "moved-5" })); !errors.Is(err, ErrDraining) {
		t.Fatalf("adopt while draining: %v, want ErrDraining", err)
	}
}

// TestAdoptJournalFailureRollsBack: Adopt is on the durability path. A
// journal failure refuses it with a retriable error and no live session;
// if nothing reached the log the ID stays free, and if part of the history
// did, a tombstone keeps recovery from resurrecting the half-adopted copy.
func TestAdoptJournalFailureRollsBack(t *testing.T) {
	ss := donorSnapshot(t, Spec{ID: "moved-1", Backend: "gbo", Workload: "SVM", Seed: 4}, 3)
	m, dir := fileStoreManager(t, store.FileOptions{})

	armServiceFault(t, "store.write", "error", 1)
	if _, err := m.Adopt(ss); !errors.Is(err, ErrJournal) {
		t.Fatalf("adopt with the create event refused: %v, want ErrJournal", err)
	}
	fault.DisarmAll()
	if m.Len() != 0 {
		t.Fatal("refused adopt left a live session")
	}

	// Nothing was logged, so the retry gets this far again; now the log
	// takes the create and one observation, then fails.
	if err := fault.Apply(fault.Schedule{Seed: 1, Rules: []fault.Rule{
		{Point: "store.write", Action: "error", After: 2, Count: 1},
	}}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Adopt(ss); !errors.Is(err, ErrJournal) {
		t.Fatalf("adopt failing mid-history: %v, want ErrJournal", err)
	}
	fault.DisarmAll()
	if _, err := m.Get(ss.ID); !errors.Is(err, ErrNotFound) || m.Len() != 0 {
		t.Fatalf("half-adopted session still live: err=%v len=%d", err, m.Len())
	}
	if _, err := m.Adopt(ss); !errors.Is(err, ErrExists) {
		t.Fatalf("adopt over the partial log: %v, want ErrExists (tombstoned)", err)
	}
	if mt := m.Metrics(); mt.Observations != 0 || mt.WarmStarts != 0 {
		t.Fatalf("refused adopts moved the counters: %+v", mt)
	}

	crash(m)
	fs2, err := store.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Open(Options{Workers: 1, Store: fs2})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if m2.Len() != 0 {
		t.Fatalf("recovery resurrected %d half-adopted sessions", m2.Len())
	}
}

// TestAdoptJournalsTheSnapshotItWasGiven ties hand-over to recovery: the
// events Adopt writes for a SessionSnapshot are that snapshot spelled as a
// log, so folding them gives it back — warm start, every history record
// with its objective and Suggested bit, the outstanding suggestion. Only
// State is the rebuild's to fill in.
func TestAdoptJournalsTheSnapshotItWasGiven(t *testing.T) {
	armed := donorSnapshot(t, Spec{ID: "s-ddpg", Backend: "ddpg", Workload: "SortByKey", Seed: 5, MaxSteps: 8}, 3)
	armed.Suggested = true
	// A warm-started donor: its fingerprint matches a model imported first.
	fp := measure(t, "", "K-means", Observation{Config: conf.Default()}, 1)
	warm := donorSnapshot(t,
		Spec{ID: "s-gbo", Backend: "gbo", Workload: "K-means", Seed: 6, MaxIterations: 8, WarmStart: true, Stats: fp.Stats, DefaultRuntimeSec: fp.RuntimeSec},
		2, bo.RepoEntry{Workload: "K-means", ClusterName: "A", Fingerprint: *fp.Stats, DefaultSec: fp.RuntimeSec,
			Points: []bo.PriorPoint{{X: []float64{0.25, 0.5, 0.5, 0.25}, Cfg: conf.Default(), Y: fp.RuntimeSec}}})
	if warm.Warm == nil {
		t.Fatalf("donor was not warm-started: %+v", warm)
	}
	for _, ss := range []store.SessionSnapshot{armed, warm} {
		tp := &tape{Store: store.NewMem()}
		m := newTestManager(t, Options{Workers: 1, Store: tp})
		if _, err := m.Adopt(ss); err != nil {
			t.Fatal(err)
		}
		folded := newManager(Options{}).fold(nil, tp.events)[ss.ID]
		if folded == nil {
			t.Fatalf("%s: the adopted session's events fold to nothing: %+v", ss.ID, tp.events)
		}
		folded.State = ss.State
		got, _ := json.Marshal(folded)
		want, _ := json.Marshal(ss)
		if string(got) != string(want) {
			t.Fatalf("%s: Adopt's events fold to a different snapshot:\n got %s\nwant %s", ss.ID, got, want)
		}
	}
}
