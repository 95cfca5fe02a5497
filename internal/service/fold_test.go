package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"relm/internal/bo"
	"relm/internal/conf"
	"relm/internal/store"
)

// These tests pin what recovery computes rather than how: however a log is
// split between a snapshot and the events replayed on top of it, restore
// must arrive at the same manager. They use nothing but restore's signature
// and the snapshot format, so they run unchanged against any implementation
// of it.

// tape is a Store that remembers every event appended through it, whatever
// compaction later drops from the log underneath.
type tape struct {
	store.Store
	events []store.Event
}

func (tp *tape) Append(ev *store.Event) (uint64, error) {
	seq, err := tp.Store.Append(ev)
	if err == nil {
		var cp store.Event
		buf, _ := json.Marshal(ev)
		if err := json.Unmarshal(buf, &cp); err != nil {
			return 0, err
		}
		tp.events = append(tp.events, cp)
	}
	return seq, err
}

// snapSink is the Store under a manager that exists only to be
// snapshotted: nothing is journaled, and with the sequence stuck at 0 the
// compaction fence is 0, so the snapshot keeps every tombstone.
type snapSink struct {
	store.Store
	snap []byte
}

func (s *snapSink) Append(*store.Event) (uint64, error) { return 0, nil }
func (s *snapSink) Seq() uint64                         { return 0 }
func (s *snapSink) Compact(snap *store.Snapshot) (err error) {
	s.snap, err = json.Marshal(snap)
	return err
}

// restored runs restore on a detached manager. A session restore could not
// rebuild is dropped, and with it every promise about the result: lossless
// callers treat that as fatal, the fuzz target as an input with nothing to
// check.
func restored(t testing.TB, lossless bool, st store.Store, snap *store.Snapshot, events []store.Event) *Manager {
	t.Helper()
	m := newManager(Options{Store: st})
	if _, err := m.restore(snap, events); err != nil {
		t.Fatal(err)
	}
	if msg := m.journalErr.Load(); msg != nil {
		if lossless {
			t.Fatalf("restore dropped a session: %s", *msg)
		}
		t.Skipf("restore dropped a session: %s", *msg)
	}
	return m
}

// snapshotOf restores events into a detached manager and returns the
// snapshot a compaction at that point would have written, as JSON.
func snapshotOf(t testing.TB, lossless bool, events []store.Event) []byte {
	t.Helper()
	sink := &snapSink{}
	if err := restored(t, lossless, sink, nil, events).Snapshot(); err != nil {
		t.Fatal(err)
	}
	return sink.snap
}

// restoredState is everything recovery is responsible for, in comparable
// form: each live session as the snapshot it would be written as, its next
// suggestion, the tombstoned IDs, the model repository and the counters.
type restoredState struct {
	Sessions   map[string]store.SessionSnapshot
	Next       map[string]conf.Config
	Tombstones []string
	Harvested  []string
	Repo       []string // entries as JSON, sorted
	NextID     uint64
	Counters   [5]int64 // observations, warm starts, evictions, repo hits, repo evictions
}

// restoreState runs restore(snap, events) on a detached manager and
// describes the result. snapJSON is decoded afresh, so no two restores
// share a snapshot.
func restoreState(t testing.TB, lossless bool, snapJSON []byte, events []store.Event) restoredState {
	t.Helper()
	var snap *store.Snapshot
	if snapJSON != nil {
		snap = new(store.Snapshot)
		if err := json.Unmarshal(snapJSON, snap); err != nil {
			t.Fatal(err)
		}
	}
	m := restored(t, lossless, nil, snap, events)
	st := restoredState{
		Sessions: make(map[string]store.SessionSnapshot),
		Next:     make(map[string]conf.Config),
		NextID:   m.nextID.Load(),
		Counters: [5]int64{m.observations.Load(), m.warmStarts.Load(), m.evictions.Load(), m.repoHits.Load(), m.repoEvictions.Load()},
	}
	for _, sh := range m.shards {
		for id, s := range sh.sessions {
			st.Sessions[id] = sessionSnapshot(s)
			st.Next[id] = s.tuner.Suggest()
		}
		for id := range sh.closed {
			st.Tombstones = append(st.Tombstones, id)
		}
	}
	sort.Strings(st.Tombstones)
	for id := range m.harvested {
		st.Harvested = append(st.Harvested, id)
	}
	sort.Strings(st.Harvested)
	for _, e := range m.repo.Entries {
		// A session found done but unharvested is harvested by recovery
		// itself: stamped with recovery's clock rather than the log's, and
		// placed after the entries the log carries rather than among them.
		e.AddedAt, e.LastUsed = time.Time{}, time.Time{}
		buf, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		st.Repo = append(st.Repo, string(buf))
	}
	sort.Strings(st.Repo)
	return st
}

// diff names the parts of got that differ from want, session by session, so
// a failure does not print two whole managers; "" when there are none.
func (got restoredState) diff(want restoredState) string {
	// fields splits a JSON object into its members, still encoded.
	fields := func(v any) map[string]json.RawMessage {
		buf, _ := json.Marshal(v)
		m := make(map[string]json.RawMessage)
		json.Unmarshal(buf, &m)
		return m
	}
	var out bytes.Buffer
	compare := func(where string, g, w map[string]json.RawMessage) {
		for key := range w {
			if _, ok := g[key]; !ok {
				g[key] = nil
			}
		}
		for key := range g {
			if !bytes.Equal(g[key], w[key]) {
				fmt.Fprintf(&out, "\n%s%s:\n  got %s\n want %s", where, key, g[key], w[key])
			}
		}
	}
	compare("session ", fields(got.Sessions), fields(want.Sessions))
	compare("next suggestion of ", fields(got.Next), fields(want.Next))
	got.Sessions, got.Next, want.Sessions, want.Next = nil, nil, nil, nil
	compare("", fields(got), fields(want))
	return out.String()
}

// recordLog drives one manager through every kind of event recovery has to
// fold — all four backends, a warm-started session, a DDPG session observed
// off its outstanding suggestion (armed, unconsumed), a trailing suggest, an
// auto session, closes, an imported model and a compaction in the middle —
// and returns the complete log.
func recordLog(t *testing.T) []store.Event {
	t.Helper()
	tp := &tape{Store: store.NewMem()}
	var ticks atomic.Int64 // a clock that moves, so LastUsed and AddedAt mean something
	m, err := Open(Options{Workers: 1, Store: tp, SnapshotEvery: 1 << 30, Now: func() time.Time {
		return time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC).Add(time.Duration(ticks.Add(1)) * time.Second)
	}})
	if err != nil {
		t.Fatal(err)
	}
	create := func(spec Spec) string {
		t.Helper()
		st, err := m.Create(spec)
		if err != nil {
			t.Fatal(err)
		}
		return st.ID
	}
	suggest := func(id string) conf.Config {
		t.Helper()
		cfg, _, err := m.Suggest(id)
		if err != nil {
			t.Fatal(err)
		}
		return cfg
	}
	observe := func(id, workload string, cfg conf.Config, seed uint64) Observation {
		t.Helper()
		o := measure(t, "", workload, Observation{Config: cfg}, seed)
		if _, err := m.Observe(id, o); err != nil {
			t.Fatal(err)
		}
		return o
	}

	// A gbo donor run to completion: harvested, then closed.
	donor := create(Spec{ID: "donor", Backend: "gbo", Workload: "K-means", Seed: 1, MaxIterations: 1})
	var fingerprint Observation
	for n := 0; ; n++ {
		cfg, done, err := m.Suggest(donor)
		if err != nil {
			t.Fatal(err)
		}
		if done {
			break
		}
		if o := observe(donor, "K-means", cfg, uint64(10+n)); n == 0 {
			fingerprint = o
		}
	}
	if err := m.CloseSession(donor); err != nil {
		t.Fatal(err)
	}

	relm := create(Spec{Backend: "relm", Workload: "PageRank", Seed: 2})
	observe(relm, "PageRank", suggest(relm), 20)

	plain := create(Spec{Backend: "bo", Workload: "SVM", Seed: 3, MaxIterations: 2})
	observe(plain, "SVM", suggest(plain), 30)

	warm := create(Spec{
		ID: "warm", Backend: "gbo", Workload: "K-means", Seed: 4, MaxIterations: 2,
		WarmStart: true, Stats: fingerprint.Stats, DefaultRuntimeSec: fingerprint.RuntimeSec,
	})
	if st, err := m.Get(warm); err != nil || !st.WarmStarted {
		t.Fatalf("warm session not warm-started: %+v (err %v)", st, err)
	}
	observe(warm, "K-means", suggest(warm), 40)

	// Everything above is now in a snapshot as well as in the tape.
	if err := m.Snapshot(); err != nil {
		t.Fatal(err)
	}

	// DDPG, observed with something other than what it was told to run: the
	// suggestion stays outstanding.
	agent := create(Spec{Backend: "ddpg", Workload: "SortByKey", Seed: 5, MaxSteps: 6})
	observe(agent, "SortByKey", suggest(agent), 50)
	if told := suggest(agent); told == conf.DefaultShuffle() {
		t.Fatal("ddpg suggested the very configuration meant to be off-suggestion")
	}
	observe(agent, "SortByKey", conf.DefaultShuffle(), 51)

	auto := create(Spec{Backend: "relm", Workload: "WordCount", Mode: ModeAuto, Seed: 6})
	waitState(t, m, auto, StateDone)

	observe(plain, "SVM", suggest(plain), 31)
	observe(warm, "K-means", suggest(warm), 41)
	short := create(Spec{ID: "short", Backend: "bo", Workload: "SVM", Seed: 7})
	observe(short, "SVM", suggest(short), 60)
	if err := m.CloseSession(short); err != nil {
		t.Fatal(err)
	}
	// What a drained peer's models look like when they arrive here.
	if n := m.ImportRepository([]bo.RepoEntry{{Workload: "SVM", ClusterName: "A", Fingerprint: *fingerprint.Stats, DefaultSec: 77,
		Points: []bo.PriorPoint{{X: []float64{0.1, 0.2, 0.3, 0.4}, Cfg: conf.Default(), Y: 77}}}}); n != 1 {
		t.Fatalf("imported %d entries, want 1", n)
	}
	suggest(plain) // trailing: handed out, never observed
	crash(m)
	return tp.events
}

// TestRestoreSameFromEveryCut is the differential test of recovery: for
// every cut k of a recorded log, a snapshot of events[:k] plus the tail
// events[k′:] for every k′ ≤ k — every possible overlap of snapshot and log —
// must restore to exactly what the whole log restores to.
func TestRestoreSameFromEveryCut(t *testing.T) {
	events := recordLog(t)
	types := make(map[string]int)
	for _, ev := range events {
		types[ev.Type]++
	}
	for _, typ := range []string{store.EventCreate, store.EventWarm, store.EventSuggest, store.EventObserve, store.EventClose, store.EventHarvest} {
		if types[typ] == 0 {
			t.Fatalf("recorded log has no %s event: %v", typ, types)
		}
	}
	if !writable(events) {
		t.Fatal("writable rejects a log a manager wrote")
	}
	want := restoreState(t, true, nil, events)
	if len(want.Sessions) != 5 || len(want.Tombstones) != 2 || len(want.Repo) != 3 {
		t.Fatalf("whole log restores %d sessions, %d tombstones, %d models; want 5, 2, 3", len(want.Sessions), len(want.Tombstones), len(want.Repo))
	}
	for k := 0; k <= len(events); k++ {
		snap := snapshotOf(t, true, events[:k])
		for tail := 0; tail <= k; tail++ {
			if d := restoreState(t, true, snap, events[tail:]).diff(want); d != "" {
				t.Fatalf("snapshot of events[:%d] + events[%d:] restores differently from the whole log (%d events):%s", k, tail, len(events), d)
			}
		}
	}
	// RELM_UPDATE_FUZZ_SEED=1 go test -run RestoreSameFromEveryCut ./internal/service
	if os.Getenv("RELM_UPDATE_FUZZ_SEED") != "" {
		writeFuzzSeed(t, events)
	}
}

// writable reports whether a manager could have written the log, whatever
// the payloads say: each session is created once, seeded with a prior at
// most once and before it observes anything, observes under consecutive
// ordinals from 0, and is silent once closed. Byte-level mutation easily
// produces logs that are not — an observation lost mid-session, a chunk
// pasted twice with a digit changed — and for those the order in which two
// conflicting records are met decides which one wins.
func writable(events []store.Event) bool {
	type life struct {
		observed     int
		warm, closed bool
	}
	sessions := make(map[string]*life)
	for _, ev := range events {
		l := sessions[ev.ID]
		switch ev.Type {
		case store.EventCreate:
			if l != nil {
				return false
			}
			sessions[ev.ID] = new(life)
		case store.EventWarm, store.EventSuggest, store.EventObserve, store.EventClose:
			if l == nil || l.closed {
				return false
			}
			switch ev.Type {
			case store.EventWarm:
				if l.warm || l.observed > 0 {
					return false
				}
				l.warm = true
			case store.EventObserve:
				if ev.Obs == nil || ev.N != l.observed {
					return false
				}
				l.observed++
			case store.EventClose:
				l.closed = true
			}
		}
	}
	return true
}

// FuzzRestore: restore must survive any sequence of decodable events; and
// for a log a manager could have written, unless a session in it cannot be
// rebuilt, a snapshot cut at the midpoint plus an overlapping tail must
// restore to what the whole log restores to. Seeded with the log
// TestRestoreSameFromEveryCut records (testdata/fuzz/FuzzRestore).
func FuzzRestore(f *testing.F) {
	f.Fuzz(func(t *testing.T, jsonl []byte) {
		var events []store.Event
		for _, line := range bytes.Split(jsonl, []byte("\n")) {
			var ev store.Event
			if json.Unmarshal(line, &ev) == nil {
				events = append(events, ev)
			}
		}
		// Seq is the store's to assign, strictly increasing from 1.
		for i := range events {
			events[i].Seq = uint64(i + 1)
		}
		want := restoreState(t, false, nil, events)
		if !writable(events) {
			return
		}
		mid := len(events) / 2
		got := restoreState(t, false, snapshotOf(t, false, events[:mid]), events[mid/2:])
		// A log that lost a harvest event (they are advisory) leaves a session
		// done but unharvested; the recovery at the cut harvests it, and the
		// model outlives a close later in the log. The whole log never
		// rebuilds a session it sees closed, so it never harvests that one.
		if !subset(want.Repo, got.Repo) || !subset(want.Harvested, got.Harvested) {
			t.Fatalf("snapshot of events[:%d] + events[%d:] lost models of the whole log (%d events): %v, want all of %v", mid, mid/2, len(events), got.Harvested, want.Harvested)
		}
		got.Repo, got.Harvested = want.Repo, want.Harvested
		// A warm event for a backend that takes no priors — no manager writes
		// one — is counted when folded yet never shows in a snapshot.
		got.Counters[1] = want.Counters[1]
		if d := got.diff(want); d != "" {
			t.Fatalf("snapshot of events[:%d] + events[%d:] restores differently from the whole log (%d events):%s", mid, mid/2, len(events), d)
		}
	})
}

// subset reports whether every element of the sorted slice a is in the sorted
// slice b.
func subset(a, b []string) bool {
	for _, x := range a {
		if i := sort.SearchStrings(b, x); i == len(b) || b[i] != x {
			return false
		}
	}
	return true
}

// writeFuzzSeed checks the recorded log in as FuzzRestore's seed corpus, in
// the go test fuzz v1 encoding.
func writeFuzzSeed(t *testing.T, events []store.Event) {
	t.Helper()
	var jsonl bytes.Buffer
	for i := range events {
		line, err := json.Marshal(&events[i])
		if err != nil {
			t.Fatal(err)
		}
		jsonl.Write(line)
		jsonl.WriteByte('\n')
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzRestore")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", jsonl.Bytes())
	if err := os.WriteFile(filepath.Join(dir, "recorded-log"), []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
}
