package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"relm/internal/bo"
	"relm/internal/conf"
	"relm/internal/fault"
	"relm/internal/sim/cluster"
	"relm/internal/sim/workload"
	"relm/internal/store"
	"relm/internal/tune"
)

// These tests pin admission — Create and Adopt — and the warm starts it
// carries to one record each: what a call acknowledges is what recovery
// brings back, because no acknowledged write is spread over two records.

// kmeansModel is a K-means default-configuration run on cluster A and a
// repository model fingerprinted by it, which a K-means session matches.
func kmeansModel(t *testing.T) (Observation, bo.RepoEntry) {
	t.Helper()
	def := conf.Default()
	fp := measure(t, "", "K-means", Observation{Config: def}, 1)
	return fp, bo.RepoEntry{Workload: "K-means", ClusterName: "A", Fingerprint: *fp.Stats, DefaultSec: fp.RuntimeSec,
		Points: []bo.PriorPoint{{X: tune.NewSpace(cluster.A(), workload.KMeans()).Encode(def), Cfg: def, Y: fp.RuntimeSec}}}
}

func importModels(t *testing.T, m *Manager, models ...bo.RepoEntry) {
	t.Helper()
	if n, err := m.ImportRepository(models); n != len(models) || err != nil {
		t.Fatalf("imported %d of %d models: %v", n, len(models), err)
	}
}

// waitSettled polls an auto session until it is done or failed.
func waitSettled(t *testing.T, m *Manager, id string) Status {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for {
		st, err := m.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == StateDone || st.State == StateFailed {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("session %s stuck in %q", id, st.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestEachAdmissionIsOneRecord: a cold create, a warm create and an adopt
// with history and a warm start each append exactly one
// create record carrying the session, and an auto session's fingerprinting
// run is one observe record carrying the warm start it matched. No warm
// record is written.
func TestEachAdmissionIsOneRecord(t *testing.T) {
	fp, model := kmeansModel(t)
	tp := &tape{Store: store.NewMem()}
	m := newTestManager(t, Options{Workers: 1, Store: tp})
	importModels(t, m, model)
	adopted := donorSnapshot(t, Spec{ID: "adopted", Backend: "gbo", Workload: "K-means", Seed: 6, MaxIterations: 8,
		WarmStart: true, Stats: fp.Stats, DefaultRuntimeSec: fp.RuntimeSec}, 2, model)
	if adopted.Warm == nil {
		t.Fatalf("donor was not warm-started: %+v", adopted)
	}

	for _, tc := range []struct {
		name  string
		admit func() (Status, error)
		warm  bool
		evals int
	}{
		{"cold create", func() (Status, error) { return m.Create(Spec{Backend: "bo", Workload: "SVM", Seed: 1}) }, false, 0},
		{"warm create", func() (Status, error) {
			return m.Create(Spec{Backend: "gbo", Workload: "K-means", Seed: 2, WarmStart: true, Stats: fp.Stats, DefaultRuntimeSec: fp.RuntimeSec})
		}, true, 0},
		{"adopt", func() (Status, error) { return m.Adopt(adopted) }, true, 2},
	} {
		before := len(tp.events)
		st, err := tc.admit()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if st.WarmStarted != tc.warm || st.Evals != tc.evals {
			t.Fatalf("%s: status %+v, want warm=%v evals=%d", tc.name, st, tc.warm, tc.evals)
		}
		if n := len(tp.events) - before; n != 1 {
			t.Fatalf("%s appended %d records, want 1: %+v", tc.name, n, tp.events[before:])
		}
		ev := tp.events[before]
		if ev.Type != store.EventCreate || ev.ID != st.ID || ev.Session == nil {
			t.Fatalf("%s journaled %+v, want a create record carrying the session", tc.name, ev)
		}
		if (ev.Session.Warm != nil) != tc.warm || len(ev.Session.History) != tc.evals {
			t.Fatalf("%s: record carries warm=%v, %d history records; want %v, %d", tc.name,
				ev.Session.Warm != nil, len(ev.Session.History), tc.warm, tc.evals)
		}
	}

	st, err := m.Create(Spec{ID: "auto", Backend: "bo", Workload: "K-means", Mode: ModeAuto, Seed: 3, MaxIterations: 2, WarmStart: true})
	if err != nil {
		t.Fatal(err)
	}
	if final := waitState(t, m, st.ID, StateDone); !final.WarmStarted {
		t.Fatalf("auto session did not match the model: %+v", final)
	}
	var auto []store.Event
	for _, ev := range tp.events {
		if ev.Type == store.EventWarm {
			t.Fatalf("a warm record was written: %+v", ev)
		}
		if ev.ID == "auto" {
			auto = append(auto, ev)
		}
	}
	if len(auto) < 2 || auto[0].Type != store.EventCreate || auto[0].Session.Warm != nil {
		t.Fatalf("auto session's log starts %+v, want a cold create record", auto)
	}
	for i, ev := range auto[1:] {
		if first := i == 0; (ev.Warm != nil) != first || first && (ev.Type != store.EventObserve || ev.N != 0) {
			t.Fatalf("auto session's record %d is %+v; only the fingerprinting run's observe (n=0) carries the warm start", i+1, ev)
		}
	}
	if mt := m.Metrics(); mt.WarmStarts != 3 {
		t.Fatalf("warm starts counted %d, want 3 (warm create, adopt, auto)", mt.WarmStarts)
	}
}

// TestFullQueueClosesTheAdmittedSession: an auto session the worker queue
// cannot take is refused with ErrBusy after its create record is durable,
// so it is closed — tombstone and close record — and recovery does not
// bring it back.
func TestFullQueueClosesTheAdmittedSession(t *testing.T) {
	tp := &tape{Store: store.NewMem()}
	m := newManager(Options{Store: tp}) // never started: no queue takes a session
	spec := Spec{ID: "auto", Backend: "bo", Workload: "SVM", Mode: ModeAuto}
	if _, err := m.Create(spec); !errors.Is(err, ErrBusy) {
		t.Fatalf("create with no room in the queue: %v, want ErrBusy", err)
	}
	if m.Len() != 0 || m.count.Load() != 0 {
		t.Fatalf("refused session left %d live, count %d", m.Len(), m.count.Load())
	}
	if _, err := m.Create(spec); !errors.Is(err, ErrExists) {
		t.Fatalf("create over the closed session: %v, want ErrExists", err)
	}
	if len(tp.events) != 2 || tp.events[0].Type != store.EventCreate || tp.events[1].Type != store.EventClose {
		t.Fatalf("journaled %+v, want the create record and its close", tp.events)
	}
	if got := restoreState(t, true, nil, tp.events); len(got.Sessions) != 0 || len(got.Tombstones) != 1 {
		t.Fatalf("recovery restores %d sessions, %d tombstones; want 0, 1", len(got.Sessions), len(got.Tombstones))
	}
}

// TestWarmCreateSurvivesAJournalFault: with the log failing on its second
// write, a warm create is either refused — and its ID stays free — or its
// warm start comes back after a crash, with the same next suggestion. A
// create acked warm must never restore cold.
func TestWarmCreateSurvivesAJournalFault(t *testing.T) {
	fp, model := kmeansModel(t)
	m, dir := fileStoreManager(t, store.FileOptions{})
	importModels(t, m, model)
	spec := Spec{ID: "warm", Backend: "gbo", Workload: "K-means", Seed: 6, MaxIterations: 8,
		WarmStart: true, Stats: fp.Stats, DefaultRuntimeSec: fp.RuntimeSec}
	armFaultAfter(t, "store.write", 1)
	st, err := m.Create(spec)
	fault.DisarmAll()
	if err != nil {
		if !errors.Is(err, ErrJournal) {
			t.Fatalf("create under a journal fault: %v, want ErrJournal", err)
		}
		if st, err = m.Create(spec); err != nil {
			t.Fatalf("retrying a refused create: %v, want the ID free", err)
		}
	}
	if !st.WarmStarted {
		t.Fatalf("create did not match the model: %+v", st)
	}
	next, _, err := m.Suggest(spec.ID)
	if err != nil {
		t.Fatal(err)
	}
	crash(m)

	m2 := reopen(t, dir)
	if got, err := m2.Get(spec.ID); err != nil || !got.WarmStarted || got.WarmSource != st.WarmSource {
		t.Fatalf("create acked warm from %q restores as %+v (err %v)", st.WarmSource, got, err)
	}
	if again, _, err := m2.Suggest(spec.ID); err != nil || again != next {
		t.Fatalf("restored session suggests %+v (err %v), want %+v", again, err, next)
	}
}

// TestAutoWarmStartSurvivesAJournalFault: with the log failing on its
// second write — an auto session's fingerprinting run — the session either
// fails, acknowledging nothing past its create, or finishes warm and comes
// back warm after a crash, with the same history.
func TestAutoWarmStartSurvivesAJournalFault(t *testing.T) {
	_, model := kmeansModel(t)
	m, dir := fileStoreManager(t, store.FileOptions{})
	importModels(t, m, model)
	armFaultAfter(t, "store.write", 1)
	st, err := m.Create(Spec{ID: "auto", Backend: "bo", Workload: "K-means", Mode: ModeAuto, Seed: 2, MaxIterations: 4, WarmStart: true})
	if err != nil {
		t.Fatal(err)
	}
	final := waitSettled(t, m, st.ID)
	fault.DisarmAll()
	if final.State == StateFailed {
		if !strings.Contains(final.Err, ErrJournal.Error()) || final.Evals != 0 {
			t.Fatalf("auto session failed with %d evals: %q, want the refused fingerprinting run", final.Evals, final.Err)
		}
		return
	}
	if !final.WarmStarted {
		t.Fatalf("auto session did not match the model: %+v", final)
	}
	hist, err := m.History(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	crash(m)

	m2 := reopen(t, dir)
	if got, err := m2.Get(st.ID); err != nil || !got.WarmStarted {
		t.Fatalf("auto session finished warm, restores as %+v (err %v)", got, err)
	}
	if got, err := m2.History(st.ID); err != nil || !historiesEqual(got, hist) {
		t.Fatalf("restored history differs (err %v):\n got %+v\nwant %+v", err, got, hist)
	}
}

// TestImportJournalsBeforeItAcks: an import reports only entries its log
// holds. The append refused partway stops it with ErrJournal — over HTTP a
// retriable 503 — and the retry completes it; a restart holds every entry
// reported.
func TestImportJournalsBeforeItAcks(t *testing.T) {
	entries := fullRepository(3)
	m, dir := fileStoreManager(t, store.FileOptions{})
	armFaultAfter(t, "store.write", 1)
	if n, err := m.ImportRepository(entries[:2]); n != 1 || !errors.Is(err, ErrJournal) {
		t.Fatalf("import with its second append refused: %d, %v; want 1, ErrJournal", n, err)
	}
	fault.DisarmAll()

	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()
	armServiceFault(t, "store.write", "error", 1)
	body, err := json.Marshal(RepoExportResponse{Models: entries})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/v1/repository/import", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("import under a journal fault: status %d, Retry-After %q; want a retriable 503", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	fault.DisarmAll()
	var imported RepoImportResponse
	if code := doJSON(t, http.MethodPost, srv.URL+"/v1/repository/import", RepoExportResponse{Models: entries}, &imported); code != http.StatusOK || imported.Imported != 2 {
		t.Fatalf("retried import: status %d, %+v; want 200 and the 2 entries missing", code, imported)
	}
	crash(m)
	if got := len(reopen(t, dir).Repository().Entries); got != len(entries) {
		t.Fatalf("restart holds %d entries, %d were reported imported", got, len(entries))
	}
}

// TestOldAdoptLogFoldsLikeItsRecord: logs written before an admission was
// one record still open. testdata/adopt-parent-events.json holds, for the
// two donors of TestAdoptJournalsTheSnapshotItWasGiven, the snapshot given
// to Adopt and the records that Adopt used to write for it — create{spec},
// warm, one observe per history entry, a trailing suggest. They must fold to
// the session the one record written now folds to, with the same counters,
// and restore to the same tuner.
func TestOldAdoptLogFoldsLikeItsRecord(t *testing.T) {
	buf, err := os.ReadFile(filepath.Join("testdata", "adopt-parent-events.json"))
	if err != nil {
		t.Fatal(err)
	}
	var fixtures []struct {
		Snapshot store.SessionSnapshot
		Events   []store.Event
	}
	if err := json.Unmarshal(buf, &fixtures); err != nil {
		t.Fatal(err)
	}
	if len(fixtures) != 2 {
		t.Fatalf("%d fixtures, want the armed and the warm donor", len(fixtures))
	}
	for _, fx := range fixtures {
		ss := fx.Snapshot
		tp := &tape{Store: store.NewMem()}
		if _, err := newTestManager(t, Options{Workers: 1, Store: tp}).Adopt(ss); err != nil {
			t.Fatal(err)
		}
		old, cur := newManager(Options{}), newManager(Options{})
		oldSS, curSS := old.fold(nil, fx.Events)[ss.ID], cur.fold(nil, tp.events)[ss.ID]
		if oldSS == nil || curSS == nil {
			t.Fatalf("%s: the old records fold to %+v, the new one to %+v", ss.ID, oldSS, curSS)
		}
		oldSS.State = ss.State // an old create record carries no state
		oldJSON, _ := json.Marshal(oldSS)
		curJSON, _ := json.Marshal(curSS)
		if string(oldJSON) != string(curJSON) {
			t.Fatalf("%s: the old records fold to another session than the new record:\n old %s\n new %s", ss.ID, oldJSON, curJSON)
		}
		if old.observations.Load() != cur.observations.Load() || old.warmStarts.Load() != cur.warmStarts.Load() {
			t.Fatalf("%s: old records count %d observations and %d warm starts, the new record %d and %d", ss.ID,
				old.observations.Load(), old.warmStarts.Load(), cur.observations.Load(), cur.warmStarts.Load())
		}
		if d := restoreState(t, true, nil, fx.Events).diff(restoreState(t, true, nil, tp.events)); d != "" {
			t.Fatalf("%s: the old records restore differently from the new one:%s", ss.ID, d)
		}
	}
}

// TestCreateRecordsRejournalByteForByte: testdata/create-records.jsonl
// holds create records as a build with a durable spec type of its own
// journaled them — the default surrogate, a budget, a kernel with a refit
// period, a remote session carrying every optional field, a queued auto
// session — and an old-format create{spec} with a surrogate block. A node
// adopting the sessions they reopen to journals, byte for byte, what that
// build's node journaled (create-records-rejournaled.jsonl), less the
// surrogate object this build no longer has: each current-format record as
// it was written without it, the old one as a current-format record whose
// spec has its mode filled in.
func TestCreateRecordsRejournalByteForByte(t *testing.T) {
	read := func(name string) [][]byte {
		buf, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		return bytes.Split(bytes.TrimSpace(buf), []byte("\n"))
	}
	written, want := read("create-records.jsonl"), read("create-records-rejournaled.jsonl")
	events := make([]store.Event, len(written))
	for i, line := range written {
		if err := json.Unmarshal(line, &events[i]); err != nil || events[i].Type != store.EventCreate {
			t.Fatalf("record %d is not a create record (err %v): %s", i, err, line)
		}
	}
	rep, err := BuildHandoff(nil, events, "n1")
	if err != nil {
		t.Fatal(err)
	}
	byID := make(map[string]store.SessionSnapshot)
	for _, ss := range rep.Sessions {
		byID[ss.ID] = ss
	}
	tp := &tape{Store: store.NewMem()}
	m := newTestManager(t, Options{NodeID: "n2", noPool: true, Store: tp})
	for _, ev := range events {
		if _, err := m.Adopt(byID[ev.ID]); err != nil {
			t.Fatalf("adopt %s: %v", ev.ID, err)
		}
	}
	surrogate := regexp.MustCompile(`,"surrogate":\{[^}]*\}`)
	unsurrogated := func(line []byte) []byte { return surrogate.ReplaceAll(line, nil) }
	if len(tp.lines) != len(want) || len(want) != len(written) {
		t.Fatalf("%d records journaled for %d adopted sessions, want %d", len(tp.lines), len(written), len(want))
	}
	for i, line := range tp.lines {
		if !bytes.Equal(line, unsurrogated(want[i])) {
			t.Fatalf("%s: journaled\n %s\nwant, less its surrogate object,\n %s", events[i].ID, line, unsurrogated(want[i]))
		}
		if events[i].Session != nil && !bytes.Equal(line, unsurrogated(written[i])) {
			t.Fatalf("%s: journaled\n %s\nwas written, less its surrogate object, as\n %s", events[i].ID, line, unsurrogated(written[i]))
		}
	}
}
