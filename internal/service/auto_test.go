package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"relm/internal/conf"
	"relm/internal/store"
)

// An auto session's place in the stress-test loop is its history: run n
// draws the simulator seed for n = len(history), live and rebuilt alike.

// driveAuto runs an auto session's loop to its end on the caller's
// goroutine (the manager has no workers) and returns its history.
func driveAuto(t *testing.T, m *Manager, id string) []HistoryEntry {
	t.Helper()
	s, err := m.get(id)
	if err != nil {
		t.Fatal(err)
	}
	m.drive(s)
	hist, err := m.History(id)
	if err != nil {
		t.Fatal(err)
	}
	return hist
}

// TestAutoRebuildAfterClientObserve: a client observation into an auto
// session shifts the runs after it the same way whether the worker that
// draws them is the one that saw the observation or a rebuild's after a
// crash.
func TestAutoRebuildAfterClientObserve(t *testing.T) {
	spec := Spec{Backend: "bo", Workload: "K-means", Mode: ModeAuto, Seed: 5}
	client := Observation{Config: conf.Default(), RuntimeSec: 123}
	run := func(restart bool) []HistoryEntry {
		mem := store.NewMem()
		m, err := Open(Options{noPool: true, Store: mem})
		if err != nil {
			t.Fatal(err)
		}
		st, err := m.Create(spec)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Observe(st.ID, client); err != nil {
			t.Fatal(err)
		}
		if restart {
			crash(m)
			if m, err = Open(Options{noPool: true, Store: mem}); err != nil {
				t.Fatal(err)
			}
		}
		t.Cleanup(m.Close)
		return driveAuto(t, m, st.ID)
	}
	live, rebuilt := run(false), run(true)
	if len(live) < 3 || live[0].RuntimeSec != client.RuntimeSec {
		t.Fatalf("live history %+v does not start with the client's observation", live)
	}
	if !historiesEqual(live, rebuilt) {
		for i := range min(len(live), len(rebuilt)) {
			if !historiesEqual(live[i:i+1], rebuilt[i:i+1]) {
				t.Fatalf("experiment %d: live %+v, rebuilt %+v", i, live[i], rebuilt[i])
			}
		}
		t.Fatalf("live ran %d experiments, rebuilt %d", len(live), len(rebuilt))
	}
}

// autoDigest is one auto session's run as a digest of its history records.
type autoDigest struct {
	Evals   int    `json:"evals"`
	History string `json:"history_sha256"`
}

// TestAutoHistoriesMatchParent: with no client observations, auto sessions
// of every backend — a warm-start miss on an empty repository, a cold
// session, and a warm-start hit on the models those two left — run the
// experiments testdata/auto-parent-digest.json records. The file was
// written by the build whose sessions kept a private evaluator with its
// own run counter, so the seed an auto session derives from its history is
// the one that counter handed out; never regenerate it from a newer build.
func TestAutoHistoriesMatchParent(t *testing.T) {
	got := make(map[string]autoDigest)
	for _, backend := range []string{"relm", "bo", "gbo", "ddpg"} {
		m, err := Open(Options{noPool: true, Store: store.NewMem()})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(m.Close)
		for _, tc := range []struct {
			name string
			seed uint64
			warm bool
		}{{"warm-miss", 1, true}, {"cold", 2, false}, {"warm-hit", 3, true}} {
			st, err := m.Create(Spec{Backend: backend, Workload: "K-means", Mode: ModeAuto, Seed: tc.seed,
				MaxIterations: 6, MaxSteps: 8, WarmStart: tc.warm})
			if err != nil {
				t.Fatal(err)
			}
			hist := driveAuto(t, m, st.ID)
			final, err := m.Get(st.ID)
			if err != nil {
				t.Fatal(err)
			}
			priors := backend == "bo" || backend == "gbo"
			if final.State != StateDone || final.WarmStarted != (priors && tc.name == "warm-hit") {
				t.Fatalf("%s/%s ended %+v", backend, tc.name, final)
			}
			h := sha256.New()
			for _, rec := range hist {
				buf, err := json.Marshal(rec)
				if err != nil {
					t.Fatal(err)
				}
				h.Write(append(buf, '\n'))
			}
			got[backend+"/"+tc.name] = autoDigest{Evals: len(hist), History: hex.EncodeToString(h.Sum(nil))}
		}
	}
	buf, err := json.MarshalIndent(got, "", "\t")
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "auto-parent-digest.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(append(buf, '\n'), want) {
		t.Fatalf("auto sessions ran other experiments than the evaluator-driven build:\n got %s\nwant %s", buf, want)
	}
}
