package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"relm/internal/fault"
	"relm/internal/loadgen"
	"relm/internal/service"
	"relm/internal/store"
)

// buildWAL journals two sessions through a real durable Manager — "live"
// with three observations, "shut" with one and then closed — and returns the
// store directory after a clean shutdown, the way a chaos run leaves it. The
// shutdown snapshot compacts "shut" away, tombstone included.
func buildWAL(t *testing.T) string {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "node-a")
	st, err := store.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	m, err := service.Open(service.Options{NodeID: "node-a", Workers: 1, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	for id, observes := range map[string]int{"live": 3, "shut": 1} {
		createObserved(t, m, id, observes)
	}
	if err := m.CloseSession("shut"); err != nil {
		t.Fatal(err)
	}
	m.Close()
	return dir
}

// createObserved creates session id on m and reports n observations to it.
func createObserved(t *testing.T, m *service.Manager, id string, n int) {
	t.Helper()
	if _, err := m.Create(service.Spec{ID: id, Backend: "bo", Workload: "SVM", Seed: 1}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		cfg, _, err := m.Suggest(id)
		if err != nil {
			t.Fatal(err)
		}
		rt := 100 + 10*math.Sin(float64(i))
		if _, err := m.Observe(id, service.Observation{Config: cfg, RuntimeSec: rt}); err != nil {
			t.Fatal(err)
		}
	}
}

// keepLog is a store whose compactions write nothing, so the log a Manager
// leaves behind at Close still holds every record it appended.
type keepLog struct{ store.Store }

func (keepLog) Compact(*store.Snapshot) error { return nil }

// buildAdoptedWAL drains session "moved", three observations in, off a
// donor and has a durable Manager adopt it, leaving the adoption in its log:
// one create record that carries the history.
func buildAdoptedWAL(t *testing.T) string {
	t.Helper()
	donor := service.NewManager(service.Options{NodeID: "donor", Workers: 1})
	defer donor.Close()
	createObserved(t, donor, "moved", 3)
	handed := donor.Drain().Sessions
	if len(handed) != 1 {
		t.Fatalf("donor handed over %d sessions, want 1", len(handed))
	}
	dir := filepath.Join(t.TempDir(), "node-b")
	st, err := store.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	m, err := service.Open(service.Options{NodeID: "node-b", Workers: 1, Store: keepLog{st}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Adopt(handed[0]); err != nil {
		t.Fatal(err)
	}
	m.Close()
	return dir
}

func writeJSONFile(t *testing.T, name string, v any) string {
	t.Helper()
	buf, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func newReport() *report { return &report{Checks: map[string]int{}} }

// wantViolations fails unless rep holds exactly len(substrs) violations, the
// i-th containing substrs[i].
func wantViolations(t *testing.T, rep *report, substrs ...string) {
	t.Helper()
	if len(rep.Details) != len(substrs) {
		t.Fatalf("%d violations, want %d: %q", len(rep.Details), len(substrs), rep.Details)
	}
	for i, sub := range substrs {
		if !strings.Contains(rep.Details[i], sub) {
			t.Errorf("violation %d = %q, want it to mention %q", i, rep.Details[i], sub)
		}
	}
}

// Invariant 1, no acked write lost: an acked observe the WAL union cannot
// recover is a violation; acks at or below what it recovers are not, and a
// session whose close the client saw acked is exempt even when compaction
// has pruned it from every WAL.
func TestCheckAcksReportsOnlyTheLostObserve(t *testing.T) {
	rep := newReport()
	union := map[string]*sessionFacts{}
	mergeWAL(rep, union, buildWAL(t))
	if f := union["live"]; f == nil || !f.created || f.closed || f.observes != 3 {
		t.Fatalf("union[live] = %+v, want created, open, 3 observes", f)
	}
	if f := union["shut"]; f != nil && !f.closed {
		t.Fatalf("union[shut] = %+v, want closed or compacted away", f)
	}

	var log bytes.Buffer
	enc := json.NewEncoder(&log)
	for _, a := range []loadgen.Ack{
		{Op: "create", Session: "live"},
		{Op: "observe", Session: "live", N: 3},
		{Op: "observe", Session: "live", N: 4}, // acked, but never journaled
		{Op: "create", Session: "shut"},        // the shutdown snapshot dropped it
		{Op: "observe", Session: "shut", N: 1},
		{Op: "close", Session: "shut"},
	} {
		if err := enc.Encode(a); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(t.TempDir(), "acks.jsonl")
	if err := os.WriteFile(path, log.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	checkAcks(rep, path, union)

	wantViolations(t, rep, "acked observe #4 of live: WALs recover only 3")
	if rep.Checks["acks"] != 6 || rep.Checks["acks_closed_exempt"] != 3 {
		t.Errorf("checks = %v, want 6 acks, 3 exempt", rep.Checks)
	}
}

// Invariant 1 over an adopted session: its history is in its create
// record, not in observe records, and the union counts it — acks of those
// observations are not lost.
func TestCheckAcksCountsAnAdoptedHistory(t *testing.T) {
	rep := newReport()
	union := map[string]*sessionFacts{}
	mergeWAL(rep, union, buildAdoptedWAL(t))
	if f := union["moved"]; f == nil || !f.created || f.closed || f.observes != 3 {
		t.Fatalf("union[moved] = %+v, want created, open, 3 observes", f)
	}
	var log bytes.Buffer
	enc := json.NewEncoder(&log)
	for _, a := range []loadgen.Ack{
		{Op: "create", Session: "moved"},
		{Op: "observe", Session: "moved", N: 1},
		{Op: "observe", Session: "moved", N: 2},
		{Op: "observe", Session: "moved", N: 3},
	} {
		if err := enc.Encode(a); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(t.TempDir(), "acks.jsonl")
	if err := os.WriteFile(path, log.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	checkAcks(rep, path, union)
	wantViolations(t, rep)
	if rep.Checks["acks"] != 4 {
		t.Errorf("checks = %v, want 4 acks", rep.Checks)
	}
}

// Invariant 2, bit-exact replay: replaying one WAL directory twice yields
// the same hand-over digest, and the check leaves the directory usable.
func TestCheckReplayDeterminismPassesTwice(t *testing.T) {
	dir := buildWAL(t)
	rep := newReport()
	checkReplayDeterminism(rep, dir)
	checkReplayDeterminism(rep, dir)
	wantViolations(t, rep)
	if rep.Checks["replays"] != 2 {
		t.Errorf("replays = %d, want 2", rep.Checks["replays"])
	}
}

// Invariant 3, every client-visible error was retriable: a kind outside the
// -retriable set is flagged, the ones inside it are not.
func TestCheckErrorKindsFlagsNonRetriable(t *testing.T) {
	path := writeJSONFile(t, "report.json", loadgen.Report{Errors: []loadgen.ErrorCount{
		{Stage: "observe", Kind: "status_503", Count: 4},
		{Stage: "suggest", Kind: "status_500", Count: 1, Sample: "boom"},
		{Stage: "create", Kind: "timeout", Count: 2},
	}})
	rep := newReport()
	checkErrorKinds(rep, path, splitList("status_503, timeout"))
	wantViolations(t, rep, "stage=suggest kind=status_500")
	if rep.Checks["error_kinds"] != 3 {
		t.Errorf("error_kinds = %d, want 3", rep.Checks["error_kinds"])
	}
}

// Invariant 4, fault accounting matches the schedule: firing more than
// planned is flagged, as is a fully traversed window that under-fired; a
// window still open, or traversed with its exact plan, is not.
func TestCheckFaultAccountingFlagsOverAndUnderFire(t *testing.T) {
	rule := fault.Rule{Action: "error", Count: 2, Window: 10, After: 5}
	named := func(point string) fault.Rule { r := rule; r.Point = point; return r }
	path := writeJSONFile(t, "faults.json", fault.Status{Armed: true, Rules: []fault.RuleStatus{
		{Rule: named("exact"), Planned: 2, Hits: 15, Fired: 2},
		{Rule: named("open"), Planned: 2, Hits: 14, Fired: 1},
		{Rule: named("over"), Planned: 2, Hits: 9, Fired: 3},
		{Rule: named("under"), Planned: 2, Hits: 15, Fired: 1},
	}})
	rep := newReport()
	checkFaultAccounting(rep, path)
	wantViolations(t, rep,
		"rule over fired 3 times, planned only 2",
		"rule under traversed its window (15 hits) but fired 1 of 2 planned")
	if rep.Checks["fault_rules"] != 4 {
		t.Errorf("fault_rules = %d, want 4", rep.Checks["fault_rules"])
	}
}

// Invariant 5, promotions match expectation: the router's promotions_total
// must equal -expect-promotions exactly.
func TestCheckPromotionsFlagsMismatch(t *testing.T) {
	path := writeJSONFile(t, "cluster.json", map[string]any{"promotions_total": 2, "nodes": []any{}})
	rep := newReport()
	checkPromotions(rep, path, 2)
	wantViolations(t, rep)
	checkPromotions(rep, path, 1)
	wantViolations(t, rep, "promotions_total=2, expected 1")
}
