// relm-chaos is the invariant checker a chaos run ends with: it takes the
// artifacts of a faulted soak — the loadgen ack log, the surviving WAL
// directories, the loadgen report, the fault-status snapshots, and the
// router's cluster view — and asserts the system's durability and
// determinism contracts held:
//
//  1. No acked write lost: every create/observe the service acknowledged
//     is recoverable from the union of the surviving WALs (closed
//     sessions excepted — their history is legitimately compacted away).
//  2. Bit-exact replay: replaying each WAL twice yields byte-identical
//     recovered state (service.ExtractHandoff is deterministic).
//  3. Every client-visible error was retriable: the loadgen error
//     breakdown contains only kinds in the -retriable set.
//  4. Fault accounting is consistent with the schedule: a rule whose
//     window was fully traversed fired exactly its planned count, and no
//     rule ever fired more than planned.
//  5. Promotions match expectation (-expect-promotions, -1 to skip).
//
// Any violation is printed, written to -out, and fails the process.
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"relm/internal/fault"
	"relm/internal/loadgen"
	"relm/internal/service"
	"relm/internal/store"
)

func main() {
	var (
		ackLog      = flag.String("ack-log", "", "loadgen ack log (JSONL) to verify against the WALs")
		dataDirs    = flag.String("data-dirs", "", "comma-separated store directories of the (stopped) backends")
		reportPath  = flag.String("report", "", "loadgen report JSON (error-kind check)")
		retriable   = flag.String("retriable", "status_503,timeout,transport,status_429", "error kinds a chaos run may surface to clients")
		faultsPaths = flag.String("faults", "", "comma-separated saved GET /v1/faults JSON snapshots (accounting check)")
		clusterPath = flag.String("cluster", "", "saved GET /v1/cluster JSON (promotion check)")
		expectPromo = flag.Int("expect-promotions", -1, "exact promotions_total expected (-1 = skip)")
		out         = flag.String("out", "", "write the invariant report JSON here")
	)
	flag.Parse()

	rep := report{Checks: map[string]int{}}

	var union map[string]*sessionFacts
	if *dataDirs != "" {
		union = map[string]*sessionFacts{}
		for _, dir := range splitList(*dataDirs) {
			checkReplayDeterminism(&rep, dir)
			mergeWAL(&rep, union, dir)
		}
	}
	if *ackLog != "" {
		checkAcks(&rep, *ackLog, union)
	}
	if *reportPath != "" {
		checkErrorKinds(&rep, *reportPath, splitList(*retriable))
	}
	for _, p := range splitList(*faultsPaths) {
		checkFaultAccounting(&rep, p)
	}
	if *clusterPath != "" && *expectPromo >= 0 {
		checkPromotions(&rep, *clusterPath, *expectPromo)
	}

	rep.Violations = len(rep.Details)
	buf, _ := json.MarshalIndent(&rep, "", "  ")
	if *out != "" {
		if err := os.WriteFile(*out, append(buf, '\n'), 0o644); err != nil {
			fatalf("write -out: %v", err)
		}
	}
	fmt.Println(string(buf))
	if rep.Violations > 0 {
		os.Exit(1)
	}
}

// report is the machine-readable verdict: which checks ran (with how many
// items each covered) and every violation found.
type report struct {
	Checks     map[string]int `json:"checks"`
	Violations int            `json:"violations"`
	Details    []string       `json:"details,omitempty"`
}

func (r *report) violate(format string, args ...any) {
	r.Details = append(r.Details, fmt.Sprintf(format, args...))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "relm-chaos: "+format+"\n", args...)
	os.Exit(2)
}

func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// sessionFacts is what the WAL union knows about one session.
type sessionFacts struct {
	created  bool
	closed   bool
	observes int // highest recovered observation count
}

// loadWAL opens one store directory exactly like a restarting node would
// (torn active-segment tails are truncated) and returns its snapshot and
// log suffix.
func loadWAL(dir string) (*store.Snapshot, []store.Event, error) {
	st, err := store.OpenFile(dir)
	if err != nil {
		return nil, nil, err
	}
	snap, events, err := st.Load()
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	return snap, events, err
}

// mergeWAL folds one directory's recovered state into the union.
func mergeWAL(rep *report, union map[string]*sessionFacts, dir string) {
	snap, events, err := loadWAL(dir)
	if err != nil {
		rep.violate("wal %s: %v", dir, err)
		return
	}
	get := func(id string) *sessionFacts {
		f := union[id]
		if f == nil {
			f = &sessionFacts{}
			union[id] = f
		}
		return f
	}
	if snap != nil {
		for _, s := range snap.Sessions {
			f := get(s.ID)
			f.created = true
			f.observes = max(f.observes, len(s.History))
		}
		for _, id := range snap.Closed {
			f := get(id)
			f.created, f.closed = true, true
		}
		// Harvested sessions are terminal: their history was folded into
		// the repository and the session itself may be compacted away.
		for _, id := range snap.Harvested {
			f := get(id)
			f.created, f.closed = true, true
		}
	}
	for i := range events {
		ev := &events[i]
		switch ev.Type {
		case store.EventCreate:
			f := get(ev.ID)
			f.created = true
			// An adopted session's history arrives in its create record.
			if ev.Session != nil {
				f.observes = max(f.observes, len(ev.Session.History))
			}
		case store.EventObserve:
			f := get(ev.ID)
			f.created = true
			f.observes = max(f.observes, ev.N+1)
		case store.EventClose:
			f := get(ev.ID)
			f.created, f.closed = true, true
		}
	}
	rep.Checks["wal_dirs"]++
}

// checkReplayDeterminism replays one WAL directory into recovered state
// twice and demands byte-identical results.
func checkReplayDeterminism(rep *report, dir string) {
	node := filepath.Base(dir)
	d1, err := handoffDigest(dir, node)
	if err != nil {
		rep.violate("replay %s: %v", dir, err)
		return
	}
	d2, err := handoffDigest(dir, node)
	if err != nil {
		rep.violate("replay %s (second pass): %v", dir, err)
		return
	}
	if d1 != d2 {
		rep.violate("replay %s: two replays of the same WAL diverged (%s vs %s)", dir, d1, d2)
	}
	rep.Checks["replays"]++
}

func handoffDigest(dir, node string) (string, error) {
	h, err := service.ExtractHandoff(dir, node)
	if err != nil {
		return "", err
	}
	buf, err := json.Marshal(h)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:8]), nil
}

// checkAcks verifies the durability ledger against the WAL union. Sessions
// whose close the client itself saw acked are exempt: once a session is
// closed, compaction may prune its tombstone (and harvest folds its history
// into the repository), so the WALs legitimately forget it.
func checkAcks(rep *report, path string, union map[string]*sessionFacts) {
	if union == nil {
		fatalf("-ack-log needs -data-dirs to verify against")
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		fatalf("read -ack-log: %v", err)
	}
	var acks []loadgen.Ack
	closedByAck := map[string]bool{}
	dec := json.NewDecoder(bytes.NewReader(buf))
	for {
		var a loadgen.Ack
		if err := dec.Decode(&a); err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			rep.violate("ack log %s: %v", path, err)
			break
		}
		acks = append(acks, a)
		if a.Op == "close" {
			closedByAck[a.Session] = true
		}
	}
	for _, a := range acks {
		rep.Checks["acks"]++
		if closedByAck[a.Session] {
			rep.Checks["acks_closed_exempt"]++
			continue
		}
		facts := union[a.Session]
		switch {
		case facts == nil:
			rep.violate("acked %s of %s: session absent from every WAL", a.Op, a.Session)
		case a.Op == "observe" && !facts.closed && facts.observes < a.N:
			rep.violate("acked observe #%d of %s: WALs recover only %d observations", a.N, a.Session, facts.observes)
		}
	}
}

// checkErrorKinds demands every client-visible error kind be retriable.
func checkErrorKinds(rep *report, path string, retriable []string) {
	buf, err := os.ReadFile(path)
	if err != nil {
		fatalf("read -report: %v", err)
	}
	var lr loadgen.Report
	if err := json.Unmarshal(buf, &lr); err != nil {
		fatalf("decode -report: %v", err)
	}
	ok := make(map[string]bool, len(retriable))
	for _, k := range retriable {
		ok[k] = true
	}
	for _, e := range lr.Errors {
		rep.Checks["error_kinds"]++
		if !ok[e.Kind] {
			rep.violate("non-retriable error surfaced to clients: stage=%s kind=%s count=%d sample=%q",
				e.Stage, e.Kind, e.Count, e.Sample)
		}
	}
}

// checkFaultAccounting verifies one node's fault-status snapshot: fired
// never exceeds planned, and a fully traversed window fired exactly its
// plan — the determinism contract (same seed, same fault sequence).
func checkFaultAccounting(rep *report, path string) {
	buf, err := os.ReadFile(path)
	if err != nil {
		fatalf("read faults snapshot %s: %v", path, err)
	}
	var st fault.Status
	if err := json.Unmarshal(buf, &st); err != nil {
		fatalf("decode faults snapshot %s: %v", path, err)
	}
	for _, r := range st.Rules {
		rep.Checks["fault_rules"]++
		if r.Fired > uint64(r.Planned) {
			rep.violate("%s: rule %s fired %d times, planned only %d", path, r.Point, r.Fired, r.Planned)
		}
		if r.Hits >= uint64(r.After)+uint64(r.Window) && r.Fired != uint64(r.Planned) {
			rep.violate("%s: rule %s traversed its window (%d hits) but fired %d of %d planned",
				path, r.Point, r.Hits, r.Fired, r.Planned)
		}
	}
}

// checkPromotions compares the router's promotions_total to expectation.
func checkPromotions(rep *report, path string, want int) {
	buf, err := os.ReadFile(path)
	if err != nil {
		fatalf("read -cluster: %v", err)
	}
	var cl struct {
		Promotions uint64 `json:"promotions_total"`
	}
	if err := json.Unmarshal(buf, &cl); err != nil {
		fatalf("decode -cluster: %v", err)
	}
	rep.Checks["promotions"]++
	if cl.Promotions != uint64(want) {
		rep.violate("promotions_total=%d, expected %d", cl.Promotions, want)
	}
}
