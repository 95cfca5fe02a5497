package service

import (
	"bytes"
	"encoding/json"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"relm/internal/bo"
	"relm/internal/conf"
	"relm/internal/store"
)

// TestHarvestEntryIsInherited: a local harvest record carries no entry —
// replay derives it from the history the log holds before the record — and
// the repository a log replays to is the one the live manager built, entry
// for entry and byte for byte. Only an import's record carries its entry,
// which exists nowhere else.
func TestHarvestEntryIsInherited(t *testing.T) {
	tp := &tape{Store: store.NewMem()}
	var ticks atomic.Int64 // a clock that moves, so AddedAt tells the entries apart
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
	// step observes one measured suggestion; false once the tuner is done.
	step := func(id, workload string, seed uint64) bool {
		t.Helper()
		cfg, done, err := m.Suggest(id)
		if err != nil {
			t.Fatal(err)
		}
		if !done {
			if _, err := m.Observe(id, measure(t, "", workload, Observation{Config: cfg}, seed)); err != nil {
				t.Fatal(err)
			}
		}
		return !done
	}
	run := func(spec Spec) {
		t.Helper()
		id := create(spec)
		for n := uint64(0); step(id, spec.Workload, spec.Seed*100+n); n++ {
		}
		if st, err := m.Get(id); err != nil || st.WarmStarted != spec.WarmStart {
			t.Fatalf("%s session: %+v (err %v), want warm-started %v", spec.Backend, st, err, spec.WarmStart)
		}
	}

	def, model := kmeansModel(t)
	importModels(t, m, model)
	run(Spec{Backend: "gbo", Workload: "SVM", Seed: 1, MaxIterations: 2})
	run(Spec{Backend: "bo", Workload: "K-means", Seed: 2, MaxIterations: 2, WarmStart: true, Stats: def.Stats, DefaultRuntimeSec: def.RuntimeSec})
	run(Spec{Backend: "ddpg", Workload: "SortByKey", Seed: 3, MaxSteps: 4})
	waitState(t, m, create(Spec{Backend: "bo", Workload: "SVM", Mode: ModeAuto, Seed: 4, MaxIterations: 2}), StateDone)
	if st := waitState(t, m, create(Spec{Backend: "gbo", Workload: "K-means", Mode: ModeAuto, Seed: 5, MaxIterations: 2, WarmStart: true}), StateDone); !st.WarmStarted {
		t.Fatalf("auto gbo session not warm-started: %+v", st)
	}
	// A RelM session the client goes on observing once it is done: the
	// harvested entry is the history at the record, not the final one.
	relm := create(Spec{Backend: "relm", Workload: "PageRank", Seed: 6})
	for n := uint64(0); step(relm, "PageRank", 600+n); n++ {
	}
	atDone, err := m.Get(relm)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Observe(relm, measure(t, "", "PageRank", Observation{Config: conf.Default()}, 699)); err != nil {
		t.Fatal(err)
	}
	// A session the drain harvests before it is done.
	drained := create(Spec{Backend: "bo", Workload: "WordCount", Seed: 7, MaxIterations: 8})
	step(drained, "WordCount", 700)
	step(drained, "WordCount", 701)
	m.Drain()
	live := m.Repository().Entries
	crash(m)

	local, imports := 0, 0
	for _, ev := range tp.events {
		if ev.Type != store.EventHarvest {
			continue
		}
		if strings.HasPrefix(ev.ID, "import-") {
			imports++
			if ev.Repo == nil {
				t.Errorf("import record %s carries no entry", ev.ID)
			}
		} else if local++; ev.Repo != nil {
			t.Errorf("local harvest record of %s carries its entry", ev.ID)
		}
	}
	if local != 7 || imports != 1 || len(live) != 8 {
		t.Fatalf("%d local harvest records, %d imports, %d entries; want 7, 1, 8", local, imports, len(live))
	}
	for _, e := range live {
		if e.Workload == "PageRank" && len(e.Points) != atDone.Evals {
			t.Fatalf("the RelM entry holds %d points, want the %d observed by the time it was done", len(e.Points), atDone.Evals)
		}
	}

	// A warm-start match bumps Hits and LastUsed, and no record journals
	// the bump: only what the records hold is compared.
	asJournaled := func(entries []bo.RepoEntry) []byte {
		t.Helper()
		entries = append([]bo.RepoEntry(nil), entries...)
		for i := range entries {
			entries[i].Hits, entries[i].LastUsed = 0, entries[i].AddedAt
		}
		buf, err := json.Marshal(entries)
		if err != nil {
			t.Fatal(err)
		}
		return buf
	}
	got := restored(t, true, nil, nil, tp.events).repo.Entries
	if g, w := asJournaled(got), asJournaled(live); !bytes.Equal(g, w) {
		t.Fatalf("the log replays to another repository than the live one:\n got %s\nwant %s", g, w)
	}
}

// TestSnapshotTornByAHarvestReplaysOneEntry: Snapshot collects the sessions
// and then the repository, so a session an observe completes in between is
// written active without that observe while its entry and its ID are
// already in the snapshot's repository. Replay folds the observe from the
// log, takes the harvest record as folded, and must neither harvest the
// session a second time nor journal a second record for it.
func TestSnapshotTornByAHarvestReplaysOneEntry(t *testing.T) {
	mem := store.NewMem()
	m, err := Open(Options{Workers: 1, Store: mem, SnapshotEvery: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	st, err := m.Create(Spec{Backend: "relm", Workload: "K-means", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	s, err := m.get(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	// The session and the fence as they stood before each observe; the
	// last pair is the one before the completing observe.
	var before store.SessionSnapshot
	var fence uint64
	for n := uint64(0); ; n++ {
		cfg, done, err := m.Suggest(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if done {
			break
		}
		s.mu.Lock()
		before = sessionSnapshot(s)
		s.mu.Unlock()
		fence = mem.Seq()
		if _, err := m.Observe(st.ID, measure(t, "", "K-means", Observation{Config: cfg}, n)); err != nil {
			t.Fatal(err)
		}
	}
	live := m.Repository()
	final, err := m.Get(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	crash(m)
	if len(live.Entries) != 1 || before.State != StateActive || before.Harvested {
		t.Fatalf("live: %d entries, the session before its last observe %q (harvested %v); want 1, active, not harvested",
			len(live.Entries), before.State, before.Harvested)
	}
	if err := mem.Compact(&store.Snapshot{
		Fence:     fence,
		NextID:    1,
		Sessions:  []store.SessionSnapshot{before},
		Repo:      &live,
		Harvested: []string{st.ID},
	}); err != nil {
		t.Fatal(err)
	}

	tp := &tape{Store: mem}
	m2, err := Open(Options{Workers: 1, Store: tp, SnapshotEvery: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	defer crash(m2)
	if got, err := m2.Get(st.ID); err != nil || got.State != StateDone || got.Evals != final.Evals {
		t.Fatalf("replayed session: %+v (err %v), want done with %d evals", got, err, final.Evals)
	}
	if n := len(m2.Repository().Entries); n != 1 {
		t.Fatalf("replay holds %d repository entries, want the 1 the live manager held", n)
	}
	for _, ev := range tp.events {
		if ev.Type == store.EventHarvest {
			t.Fatalf("Open journaled a harvest record for %s, which the snapshot already holds", ev.ID)
		}
	}
}

// gatedStore holds the first harvest record in Append until release is
// closed, so another session can finish in the meantime.
type gatedStore struct {
	store.Store
	gated   atomic.Bool
	held    chan struct{} // closed when the first harvest record reaches Append
	release chan struct{}
}

func (g *gatedStore) Append(ev *store.Event) (uint64, error) {
	if ev.Type == store.EventHarvest && g.gated.CompareAndSwap(false, true) {
		close(g.held)
		<-g.release
	}
	return g.Store.Append(ev)
}

// TestHarvestsJournalInRepositoryOrder: two sessions finish concurrently,
// and the first one's harvest record is slow to reach the log. The log must
// still hold the harvests in the order the live repository does, or a
// restart rebuilds the repository reordered — and with it Match's ties, the
// export order and a drain's report.
func TestHarvestsJournalInRepositoryOrder(t *testing.T) {
	mem := store.NewMem()
	g := &gatedStore{Store: mem, held: make(chan struct{}), release: make(chan struct{})}
	m, err := Open(Options{Workers: 1, Store: g, SnapshotEvery: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	specs := []Spec{
		{Backend: "bo", Workload: "K-means", Seed: 1, MaxIterations: 2},
		{Backend: "gbo", Workload: "SVM", Seed: 2, MaxIterations: 2},
	}
	ids := make([]string, len(specs))
	for i, spec := range specs {
		st, err := m.Create(spec)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = st.ID
	}
	// finish runs session i to done on its own goroutine.
	finish := func(i int) <-chan struct{} {
		done := make(chan struct{})
		go func() {
			defer close(done)
			for n := uint64(0); ; n++ {
				cfg, stop, err := m.Suggest(ids[i])
				if err != nil || stop {
					if err != nil {
						t.Error(err)
					}
					return
				}
				if _, err := m.Observe(ids[i], measure(t, "", specs[i].Workload, Observation{Config: cfg}, specs[i].Seed*100+n)); err != nil {
					t.Error(err)
					return
				}
			}
		}()
		return done
	}
	first := finish(0)
	select {
	case <-g.held:
	case <-first:
		t.Fatal("the first session finished without journaling a harvest record")
	}
	second := finish(1)
	// The second session finishes while the first's record is held, unless
	// its harvest waits for that record; give it the time to either.
	select {
	case <-second:
	case <-time.After(250 * time.Millisecond):
	}
	close(g.release)
	<-first
	<-second
	if t.Failed() {
		t.FailNow()
	}
	workloads := func(r bo.Repository) []string {
		var ws []string
		for _, e := range r.Entries {
			ws = append(ws, e.Workload)
		}
		return ws
	}
	live := workloads(m.Repository())
	crash(m)
	m2, err := Open(Options{Workers: 1, Store: mem, SnapshotEvery: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	defer crash(m2)
	if got := workloads(m2.Repository()); len(live) != 2 || !slices.Equal(got, live) {
		t.Fatalf("replay rebuilt the repository as %v, the live one was %v", got, live)
	}
}
