package service

import (
	"fmt"
	"maps"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"relm/internal/bo"
	"relm/internal/store"
	"relm/internal/tune"
)

// This file is the persistence layer of the Manager: journaling session
// events to the write-ahead log, recovering a fresh Manager from snapshot +
// log, and compacting the log into snapshots.
//
// Recovery is a fold over data followed by one rebuild: foldEvent folds the
// log into the snapshot's sessions without touching a tuner, then
// rebuildSession builds a tuner for each session still alive at the end of
// the log — on every core, since a rebuild depends on its own session's
// record only — and the sessions are settled one by one in ID order, so
// what settling harvests and journals does not depend on scheduling or map
// order. The fold is idempotent: observe events carry a per-session
// ordinal and are applied only when they extend the session's history,
// create/close events (and old logs' warm events) are no-ops when already
// reflected, and harvest events are keyed by session ID. A local harvest
// event carries no repository entry: the fold derives it (repoEntry) from
// the session's history as folded up to the event, which is the history
// the live harvest read. The snapshot and the log may therefore overlap —
// the snapshotter never stops the world, and a crash between the snapshot
// rename and the log rewrite loses nothing.

// journal appends one event to the store, returning its sequence number
// (0 without a store) and the append error. Every acknowledged write is one
// record whose caller refuses the operation on error, before mutating
// anything: admit's create, observeLocked's observe (with a fingerprinting
// run's warm start) and an import's harvest. Two appends are advisory;
// after a restart, losing one costs a local harvest its model unless
// recovery harvests the session again, a close its tombstone. Either way
// the last failure is surfaced through Metrics. A suggestion is not
// journaled: it changes no tuner state.
func (m *Manager) journal(ev *store.Event) (uint64, error) {
	if m.opts.Store == nil {
		return 0, nil
	}
	seq, err := m.opts.Store.Append(ev)
	if err != nil {
		msg := err.Error()
		m.journalErr.Store(&msg)
		return 0, err
	}
	if m.sinceSnap.Add(1) >= int64(m.opts.SnapshotEvery) {
		m.sinceSnap.Store(0)
		select {
		case m.snapCh <- struct{}{}:
		default: // a compaction is already pending
		}
	}
	return seq, nil
}

// journalClose journals a close tombstone for a removed session and
// records its sequence number, so compaction can prune the tombstone once
// the log no longer holds events that could resurrect the ID. Callers
// must have tombstoned the ID (tombstoneKept) when removing the session.
func (m *Manager) journalClose(id string, now time.Time) {
	seq, err := m.journal(&store.Event{Type: store.EventClose, ID: id, Time: now})
	if err != nil || seq == 0 {
		return // no store or append failed: the sentinel tombstone stays
	}
	sh := m.shardFor(id)
	sh.mu.Lock()
	sh.closed[id] = seq
	sh.mu.Unlock()
}

// snapshotter considers a checkpoint whenever journal signals SnapshotEvery
// more events, and takes one when the log appended since the last outweighs
// the snapshot that one wrote (or there is none). A snapshot rewrites the
// whole state, the log it retires is only what changed: a state that dwarfs
// SnapshotEvery events of log — a full model repository — would otherwise
// be rewritten many times over for each of its bytes that moved. Weighed
// this way the checkpoints together write no more than the log did plus one
// snapshot, and a state smaller than SnapshotEvery events of log is
// checkpointed at every signal. Both sides are the store's own byte counts.
func (m *Manager) snapshotter() {
	defer m.wg.Done()
	// folded is the store's AppendedBytes as of the last checkpoint. The
	// log found at start-up counts as appended since.
	mt := m.opts.Store.Metrics()
	folded := mt.AppendedBytes - mt.WALBytes
	for {
		select {
		case <-m.quit:
			return
		case <-m.snapCh:
			mt = m.opts.Store.Metrics()
			if mt.SnapshotBytes > 0 && mt.AppendedBytes-folded < mt.SnapshotBytes {
				continue
			}
			if err := m.Snapshot(); err != nil {
				msg := err.Error()
				m.journalErr.Store(&msg)
				continue
			}
			// Read before the fence was taken: what was appended while the
			// snapshot was collected stays counted against the next one.
			folded = mt.AppendedBytes
		}
	}
}

// Snapshot compacts the store: it collects every live session and the
// model repository into a store.Snapshot and folds the log into it. The
// service keeps running while the snapshot is collected; events journaled
// concurrently simply survive in the log and replay idempotently.
func (m *Manager) Snapshot() error {
	if m.opts.Store == nil {
		return nil
	}
	// Serialize whole snapshots: two concurrent compactions could
	// otherwise land out of order, replacing a newer snapshot with a
	// staler one after the log was already truncated past its fence.
	m.snapMu.Lock()
	defer m.snapMu.Unlock()
	// Events appended after this fence are retained by the compaction
	// even when the collection below already includes them.
	snap := &store.Snapshot{
		TakenAt:       m.opts.Now(),
		Fence:         m.opts.Store.Seq(),
		NextID:        m.nextID.Load(),
		Evictions:     m.evictions.Load(),
		Observations:  m.observations.Load(),
		WarmStarts:    m.warmStarts.Load(),
		RepoHits:      m.repoHits.Load(),
		RepoEvictions: m.repoEvictions.Load(),
	}
	// A tombstone whose close event is at or below the fence is only
	// needed until this compaction drops the matching create event; prune
	// it once the compaction succeeds.
	type tombstoneRef struct {
		sh *shard
		id string
	}
	var prunable []tombstoneRef
	for _, sh := range m.shards {
		sh.mu.RLock()
		sessions := make([]*Session, 0, len(sh.sessions))
		for _, s := range sh.sessions {
			sessions = append(sessions, s)
		}
		for id, seq := range sh.closed {
			if seq > snap.Fence {
				snap.Closed = append(snap.Closed, id)
			} else {
				prunable = append(prunable, tombstoneRef{sh, id})
			}
		}
		sh.mu.RUnlock()
		for _, s := range sessions {
			s.mu.Lock()
			if s.state != StateClosed {
				snap.Sessions = append(snap.Sessions, sessionSnapshot(s))
			}
			s.mu.Unlock()
		}
	}
	m.repoMu.Lock()
	if len(m.repo.Entries) > 0 {
		snap.Repo = &bo.Repository{Entries: append([]bo.RepoEntry(nil), m.repo.Entries...)}
	}
	for id, seq := range m.harvested {
		if seq > snap.Fence {
			snap.Harvested = append(snap.Harvested, id)
		} else {
			// fold skips harvest events at or below any snapshot's fence,
			// and every later snapshot's fence is at least this one.
			delete(m.harvested, id)
		}
	}
	m.repoMu.Unlock()
	if err := m.opts.Store.Compact(snap); err != nil {
		return err
	}
	// The compaction dropped every event at or below the fence; the
	// tombstones guarding against them can go. Re-check under the write
	// lock — never prune an entry re-tombstoned at a higher seq meanwhile.
	for _, tr := range prunable {
		tr.sh.mu.Lock()
		if seq, ok := tr.sh.closed[tr.id]; ok && seq <= snap.Fence {
			delete(tr.sh.closed, tr.id)
		}
		tr.sh.mu.Unlock()
	}
	m.sinceSnap.Store(0)
	return nil
}

// sessionSnapshot captures one session; callers hold s.mu.
func sessionSnapshot(s *Session) store.SessionSnapshot {
	return store.SessionSnapshot{
		ID:        s.id,
		Spec:      s.spec,
		State:     s.state,
		Created:   s.created,
		LastUsed:  s.lastUsed,
		Warm:      s.warm,
		Harvested: s.harvested,
		History:   append([]HistoryEntry(nil), s.history...),
	}
}

// restore rebuilds the Manager from a snapshot and the write-ahead log,
// returning the auto sessions that must be re-queued on the worker pool.
// It runs before the Manager's goroutines start. The log is first folded
// into the snapshot as plain data; only the sessions still alive at its end
// get a tuner, built once by rebuildSession from their final folded state.
// A rebuild reads nothing but its own session's record, so they run on
// every core, each worker taking the next session off one counter (a warm
// BO session costs ~40x a RelM one, so fixed stripes would idle). What
// touches the Manager — registering, settling, which may harvest and
// journal — then runs in one pass in session-ID order, so the repository,
// the log and a hand-over report come out the same on every replay. The
// three phases' wall times are the restore.fold, restore.rebuild and
// restore.settle stage histograms.
func (m *Manager) restore(snap *store.Snapshot, events []store.Event) ([]*Session, error) {
	t0 := time.Now()
	live := m.fold(snap, events)
	t1 := time.Now()
	m.opts.Obs.Histogram("restore.fold").Record(t1.Sub(t0))
	ids := slices.Sorted(maps.Keys(live))
	built := make([]*Session, len(ids))
	errs := make([]error, len(ids))
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), len(ids)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(ids); i = int(next.Add(1) - 1) {
				built[i], errs[i] = m.rebuildSession(*live[ids[i]])
			}
		}()
	}
	wg.Wait()
	t2 := time.Now()
	m.opts.Obs.Histogram("restore.rebuild").Record(t2.Sub(t1))
	var autos []*Session
	for i, s := range built {
		if errs[i] != nil {
			// A session this build can no longer rebuild (e.g. a removed
			// workload) must not brick recovery of the rest.
			msg := fmt.Sprintf("restore session %s: %v", ids[i], errs[i])
			m.journalErr.Store(&msg)
			continue
		}
		m.shardFor(s.id).sessions[s.id] = s
		m.count.Add(1)
		if m.settle(s) {
			autos = append(autos, s)
		}
	}
	m.opts.Obs.Histogram("restore.settle").Record(time.Since(t2))
	return autos, nil
}

// fold is the data half of restore: it loads the snapshot's counters,
// tombstones and model repository into the Manager, folds the log on top,
// and returns the sessions alive at the end of it — the snapshot's, brought
// up to date, and those the log created.
func (m *Manager) fold(snap *store.Snapshot, events []store.Event) map[string]*store.SessionSnapshot {
	live := make(map[string]*store.SessionSnapshot)
	if snap != nil {
		m.nextID.Store(snap.NextID)
		m.evictions.Store(snap.Evictions)
		// The counters resume from the snapshot; events the log folds on
		// top (only those not already reflected) add to them.
		m.observations.Store(snap.Observations)
		m.warmStarts.Store(snap.WarmStarts)
		m.repoHits.Store(snap.RepoHits)
		m.repoEvictions.Store(snap.RepoEvictions)
		// Snapshotted tombstones outlived their compaction fence, so their
		// close events are still in the log; the fold rebinds the real seq.
		for _, id := range snap.Closed {
			m.shardFor(id).closed[id] = tombstoneKept
		}
		if snap.Repo != nil {
			m.repo = snap.Repo
		}
		// Bound past the fence until the fold meets the ID's harvest event.
		for _, id := range snap.Harvested {
			m.harvested[id] = harvestSeq(id, snap.Fence+1)
		}
		for _, ss := range snap.Sessions {
			live[ss.ID] = &ss
		}
	}
	for i := range events {
		m.foldEvent(live, snap, &events[i])
	}
	// Folded harvest events may have refilled the repository past its
	// bound (an eviction is durable only once the next snapshot lands);
	// re-converge on the capacity. These re-evictions are not new lifetime
	// evictions — the counter was restored above.
	m.repo.EvictDown(m.opts.RepoCapacity)
	return live
}

// settle finishes a session about to run — restore's, or one admit has just
// journaled, created or adopted: it recomputes a terminal state and reports
// whether the session is an auto session with no worker driving it, which
// the caller must put on the worker pool. Nothing else needs aligning: an
// auto session's next simulator run follows from its history (drive).
// Callers hold s.mu or own s exclusively.
func (m *Manager) settle(s *Session) (requeue bool) {
	m.refreshStateLocked(s)
	if s.spec.Mode == ModeAuto && (s.state == StateQueued || s.state == StateRunning) {
		s.state = StateQueued
		return true
	}
	return false
}

// rebuildSession is the one way a tuner comes back: crash recovery, a
// drained node's successor and a promoted replica's successor all hand it a
// SessionSnapshot. A fresh tuner is warm-started as recorded, replays the
// history observation by observation — arriving at the same internal state
// (surrogate data, guide model, RNG position, stopping rule, the pending
// suggestion) the tuner held when the snapshot was taken. Callers settle
// the session afterwards. The snapshot comes from disk or from another
// node: records a tuner cannot digest (say, prior points of the wrong
// dimension) fail this one session, not the process — the recover below
// runs on whichever goroutine restore's workers rebuild it on.
func (m *Manager) rebuildSession(ss store.SessionSnapshot) (s *Session, err error) {
	defer func() {
		if r := recover(); r != nil {
			s, err = nil, fmt.Errorf("service: session %q does not replay: %v", ss.ID, r)
		}
	}()
	if s, err = m.buildSession(ss.ID, ss.Spec, ss.Created); err != nil {
		return nil, err
	}
	if ss.State != "" { // a session folded from its create event carries none
		s.state = ss.State
	}
	s.lastUsed = ss.LastUsed
	s.harvested = ss.Harvested
	// No warm-start counter bump: restore resumes the total from the
	// snapshot and the log, admit counts an adopted one.
	if ws, ok := s.tuner.(warmStarter); ok && ss.Warm != nil {
		ws.WarmStart(ss.Warm.Points)
		s.warm = ss.Warm
	}
	for _, h := range ss.History {
		s.observe(h.Observation)
	}
	return s, nil
}

// buildSession constructs an un-observed session shell: Create and
// rebuildSession start from it. An empty id is assigned at registration.
func (m *Manager) buildSession(id string, spec Spec, created time.Time) (*Session, error) {
	cl, wl, err := resolve(spec)
	if err != nil {
		return nil, err
	}
	switch spec.Mode {
	case "":
		spec.Mode = ModeRemote
	case ModeRemote, ModeAuto:
	default:
		return nil, fmt.Errorf("service: unknown mode %q (want remote or auto)", spec.Mode)
	}
	sp := tune.NewSpace(cl, wl)
	t, err := m.newTuner(spec, cl, sp)
	if err != nil {
		return nil, err
	}
	s := &Session{
		id:       id,
		spec:     spec,
		tuner:    t,
		space:    sp,
		state:    StateActive,
		created:  created,
		lastUsed: created,
	}
	if spec.Mode == ModeAuto {
		s.state = StateQueued
	}
	return s, nil
}

// observe is the one function that hands a tuner an observation — live
// (observeLocked, after the journal accepted the record) and rebuilt
// (rebuildSession) alike — and appends it to the history. The objective is
// derived through the session's abort-penalty watermark, which is a
// deterministic function of the observation sequence, so a rebuild
// reproduces the live assignment exactly. Suggest changes no tuner state,
// so whether a suggestion was handed out before an observation need not be
// known. Callers hold s.mu or own s exclusively.
func (s *Session) observe(rec store.Observation) {
	smp := tune.Sample{
		Config:     rec.Config,
		X:          s.space.Encode(rec.Config),
		RuntimeSec: rec.RuntimeSec,
		Objective:  s.obj.Assign(rec.RuntimeSec, rec.Aborted),
		Stats:      rec.Stats,
	}
	smp.Result.RuntimeSec = rec.RuntimeSec
	smp.Result.Aborted = rec.Aborted
	smp.Result.GCOverhead = rec.GCOverhead
	s.tuner.Observe(smp)
	s.history = append(s.history, HistoryEntry{Observation: rec, Objective: smp.Objective})
}

// foldEvent folds one journaled event into the sessions of the snapshot as
// plain data: no tuner is touched, so a session closed later in the log
// costs a map delete. Events already reflected by the snapshot (or by an
// earlier duplicate) are skipped, and so is a type it does not know (the
// suggest records of old logs). A harvest event appends the entry it
// carries (an import's, or an old log's local harvest) or, carrying none,
// the one repoEntry derives from the session as folded so far, stamped
// with the event's time.
func (m *Manager) foldEvent(live map[string]*store.SessionSnapshot, snap *store.Snapshot, ev *store.Event) {
	ss := live[ev.ID]
	switch ev.Type {
	case store.EventCreate:
		if num, ok := m.sessionNum(ev.ID); ok && num > m.nextID.Load() {
			m.nextID.Store(num) // new sessions never collide with journaled ones
		}
		if ss != nil {
			return // already in the snapshot
		}
		if _, ok := m.shardFor(ev.ID).closed[ev.ID]; ok {
			return // tombstoned earlier in the log or by the snapshot
		}
		switch {
		case ev.Session != nil:
			cp := *ev.Session
			cp.ID, cp.History = ev.ID, slices.Clone(cp.History) // the fold appends to History
			ss = &cp
			m.observations.Add(int64(len(ss.History)))
			if ss.Warm != nil {
				m.warmStarts.Add(1)
			}
		case ev.Spec != nil: // an old log: warm and observe records follow
			ss = &store.SessionSnapshot{ID: ev.ID, Spec: *ev.Spec, Created: ev.Time, LastUsed: ev.Time}
		default:
			return
		}
		live[ev.ID] = ss

	case store.EventWarm: // old logs only
		if ss == nil || ss.Warm != nil || ev.Warm == nil {
			return
		}
		ss.Warm = ev.Warm
		m.warmStarts.Add(1)

	case store.EventObserve:
		if ss == nil || ev.Obs == nil {
			return
		}
		if ev.N != len(ss.History) {
			return // duplicate of a snapshotted observation
		}
		if ev.Warm != nil && ss.Warm == nil { // a fingerprinting run's match
			ss.Warm = ev.Warm
			m.warmStarts.Add(1)
		}
		var obj tune.Objectives
		obj.Restore(worstRuntime(ss.History))
		ss.History = append(ss.History, HistoryEntry{Observation: *ev.Obs, Objective: obj.Assign(ev.Obs.RuntimeSec, ev.Obs.Aborted)})
		ss.LastUsed = ev.Time
		m.observations.Add(1)

	case store.EventClose:
		delete(live, ev.ID)
		m.shardFor(ev.ID).closed[ev.ID] = ev.Seq

	case store.EventHarvest:
		if snap != nil && ev.Seq <= snap.Fence {
			return // in the snapshot repository, or evicted from it
		}
		if seq, ok := m.harvested[ev.ID]; ok {
			m.harvested[ev.ID] = max(seq, ev.Seq)
			if ss != nil {
				// A snapshot collected while this harvest ran holds the
				// session without it; settling must not harvest it again.
				ss.Harvested = true
			}
			return // already folded into the snapshot repository
		}
		entry := ev.Repo // an import's, or an old log's local harvest
		if entry == nil {
			if ss == nil {
				return
			}
			e, ok := repoEntry(ss.Spec, ss.History, ev.Time)
			if !ok {
				return
			}
			entry = &e
		}
		m.repo.Entries = append(m.repo.Entries, *entry)
		m.harvested[ev.ID] = harvestSeq(ev.ID, ev.Seq)
		if ss != nil {
			ss.Harvested = true
		}
	}
}

// sessionNum parses the numeric component of a "sess-N" ID.
func sessionNum(id string) (uint64, bool) {
	rest, ok := strings.CutPrefix(id, "sess-")
	if !ok {
		return 0, false
	}
	num, err := strconv.ParseUint(rest, 10, 64)
	return num, err == nil
}

// worstRuntime returns the abort-penalty watermark implied by a history.
func worstRuntime(history []HistoryEntry) float64 {
	var worst float64
	for _, h := range history {
		if h.RuntimeSec > worst {
			worst = h.RuntimeSec
		}
	}
	return worst
}
