package service

import (
	"fmt"
	"strconv"
	"strings"
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
// the log. The fold is idempotent: observe events carry a per-session
// ordinal and are applied only when they extend the session's history,
// create/warm/close events are no-ops when already reflected, and harvest
// events are keyed by session ID. The snapshot and the log may therefore
// overlap — the snapshotter never stops the world, and a crash between the
// snapshot rename and the log rewrite loses nothing.

// specRecord converts a Spec to its durable form. The surrogate block is
// journaled only when set, so sessions on the default surrogate produce
// the same record bytes as before the field existed.
func specRecord(spec Spec) *store.SessionSpec {
	rec := &store.SessionSpec{
		Backend:         spec.Backend,
		Workload:        spec.Workload,
		Cluster:         spec.Cluster,
		Mode:            spec.Mode,
		Seed:            spec.Seed,
		MaxIterations:   spec.MaxIterations,
		MaxSteps:        spec.MaxSteps,
		WarmStart:       spec.WarmStart,
		WarmMaxDistance: spec.WarmMaxDistance,
		Stats:           spec.Stats,
		DefaultSec:      spec.DefaultRuntimeSec,
	}
	if spec.Surrogate != (SurrogateSpec{}) {
		rec.Surrogate = &spec.Surrogate
	}
	return rec
}

// specFromRecord is the inverse of specRecord.
func specFromRecord(rec store.SessionSpec) Spec {
	spec := Spec{
		Backend:           rec.Backend,
		Workload:          rec.Workload,
		Cluster:           rec.Cluster,
		Mode:              rec.Mode,
		Seed:              rec.Seed,
		MaxIterations:     rec.MaxIterations,
		MaxSteps:          rec.MaxSteps,
		WarmStart:         rec.WarmStart,
		WarmMaxDistance:   rec.WarmMaxDistance,
		Stats:             rec.Stats,
		DefaultRuntimeSec: rec.DefaultSec,
	}
	if rec.Surrogate != nil {
		spec.Surrogate = *rec.Surrogate
	}
	return spec
}

// journal appends one event to the store, returning its sequence number
// (0 without a store) and the append error. Callers on the durability path
// — Create and Observe, whose acks promise the event survives recovery —
// fail the operation on error (journal-before-apply); advisory events
// (suggest, harvest, close tombstones) ignore it. Either way the last
// failure is surfaced through Metrics.
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
	for id := range m.harvested {
		snap.Harvested = append(snap.Harvested, id)
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
		Spec:      *specRecord(s.spec),
		State:     s.state,
		Created:   s.created,
		LastUsed:  s.lastUsed,
		Warm:      s.warm,
		Harvested: s.harvested,
		History:   append([]HistoryEntry(nil), s.history...),
		Suggested: s.suggested,
	}
}

// restore rebuilds the Manager from a snapshot and the write-ahead log,
// returning the auto sessions that must be re-queued on the worker pool.
// It runs before the Manager's goroutines start. The log is first folded
// into the snapshot as plain data; only the sessions still alive at its end
// get a tuner, built once by rebuildSession from their final folded state.
func (m *Manager) restore(snap *store.Snapshot, events []store.Event) ([]*Session, error) {
	var autos []*Session
	for _, ss := range m.fold(snap, events) {
		s, err := m.rebuildSession(*ss)
		if err != nil {
			// A session this build can no longer rebuild (e.g. a removed
			// workload) must not brick recovery of the rest.
			msg := fmt.Sprintf("restore session %s: %v", ss.ID, err)
			m.journalErr.Store(&msg)
			continue
		}
		m.shardFor(s.id).sessions[s.id] = s
		m.count.Add(1)
		if m.settle(s) {
			autos = append(autos, s)
		}
	}
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
		for _, id := range snap.Harvested {
			m.harvested[id] = struct{}{}
		}
		for _, ss := range snap.Sessions {
			live[ss.ID] = &ss
		}
	}
	armed := make(map[string]time.Time)
	for i := range events {
		m.foldEvent(live, armed, &events[i])
	}
	for id, at := range armed {
		if ss := live[id]; ss != nil {
			ss.Suggested, ss.LastUsed = true, at
		}
	}
	// Folded harvest events may have refilled the repository past its
	// bound (an eviction is durable only once the next snapshot lands);
	// re-converge on the capacity. These re-evictions are not new lifetime
	// evictions — the counter was restored above.
	m.repo.EvictDown(m.opts.RepoCapacity)
	return live
}

// settle finishes a rebuilt session (restore's, or the hand-over Adopt
// rebuilt): it aligns the evaluator's bookkeeping with the history,
// recomputes a terminal state, and reports whether the session is an
// interrupted auto session — the worker driving it did not come along — that
// the caller must put back on the worker pool. Callers hold s.mu or own s
// exclusively.
func (m *Manager) settle(s *Session) (requeue bool) {
	if s.ev != nil {
		s.ev.Resume(len(s.history), worstRuntime(s.history))
	}
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
// history observation by observation, and is re-armed if a suggestion was
// outstanding — arriving at the same internal state (surrogate data, guide
// model, RNG position, stopping rule) the tuner held when the snapshot was
// taken. Callers settle the session afterwards. The snapshot comes from
// disk or from another node: records a tuner cannot digest (say, prior
// points of the wrong dimension) fail this one session, not the process.
func (m *Manager) rebuildSession(ss store.SessionSnapshot) (s *Session, err error) {
	defer func() {
		if r := recover(); r != nil {
			s, err = nil, fmt.Errorf("service: session %q does not replay: %v", ss.ID, r)
		}
	}()
	if s, err = m.buildSession(ss.ID, specFromRecord(ss.Spec), ss.Created); err != nil {
		return nil, err
	}
	if ss.State != "" { // a session folded from its create event carries none
		s.state = ss.State
	}
	s.lastUsed = ss.LastUsed
	s.harvested = ss.Harvested
	// No warm-start counter bump: restore resumes the total from the
	// snapshot, Adopt counts its own.
	if ws, ok := s.tuner.(warmStarter); ok && ss.Warm != nil {
		ws.WarmStart(ss.Warm.Points)
		s.warm = ss.Warm
	}
	for _, h := range ss.History {
		s.observe(h.Observation)
	}
	if ss.Suggested {
		// Arming is idempotent: suggestions are cached until consumed.
		s.tuner.Suggest()
		s.suggested = true
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
	sur, err := resolveSurrogate(spec.Surrogate)
	if err != nil {
		return nil, err
	}
	sp := tune.NewSpace(cl, wl)
	t, err := m.newTuner(spec, sur, cl, sp)
	if err != nil {
		return nil, err
	}
	s := &Session{
		id:       id,
		spec:     spec,
		tuner:    t,
		sur:      sur,
		space:    sp,
		state:    StateActive,
		created:  created,
		lastUsed: created,
	}
	if spec.Mode == ModeAuto {
		s.ev = tune.NewEvaluator(cl, wl, spec.Seed)
		s.state = StateQueued
	}
	return s, nil
}

// observe is the one function that hands a tuner an observation — live
// (observeLocked, after the journal accepted the record) and rebuilt
// (rebuildSession) alike — and appends it to the history. The objective is
// derived through the session's abort-penalty watermark, which is a
// deterministic function of the observation sequence, so a rebuild
// reproduces the live assignment exactly.
//
// The recorded Suggested bit carries the suggest/observe interleaving: a
// rebuild re-arms a suggestion via Suggest exactly when one was outstanding
// live. DDPG's solicited/unsolicited/no-pending branches (replay buffer,
// training, state folding) all depend on that distinction; BO/GBO/RelM
// suggestions are cached between observations, so arming is state-neutral
// for them. Callers hold s.mu or own s exclusively.
func (s *Session) observe(rec store.Observation) {
	if rec.Suggested && !s.suggested {
		s.tuner.Suggest()
		s.suggested = true
	}
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
	if s.suggested && s.tuner.Suggest() == smp.Config {
		// Suggest is pure while a suggestion is outstanding; the tuner is
		// about to consume it.
		s.suggested = false
	}
	s.tuner.Observe(smp)
	s.history = append(s.history, HistoryEntry{Observation: rec, Objective: smp.Objective})
}

// foldEvent folds one journaled event into the sessions of the snapshot as
// plain data: no tuner is touched, so a session closed later in the log
// costs a map delete. Events already reflected by the snapshot (or by an
// earlier duplicate) are skipped. armed collects the trailing suggests: a
// suggest event takes effect only if no observe event of its session follows
// it. One that does either stamps its record Suggested, which is how
// rebuildSession re-arms, or is itself a duplicate — and then the snapshot,
// which already holds that observation, is later than the suggest.
func (m *Manager) foldEvent(live map[string]*store.SessionSnapshot, armed map[string]time.Time, ev *store.Event) {
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
		if ev.Spec == nil {
			return
		}
		live[ev.ID] = &store.SessionSnapshot{ID: ev.ID, Spec: *ev.Spec, Created: ev.Time, LastUsed: ev.Time}

	case store.EventWarm:
		if ss == nil || ss.Warm != nil || ev.Warm == nil {
			return
		}
		ss.Warm = ev.Warm
		m.warmStarts.Add(1)

	case store.EventSuggest:
		armed[ev.ID] = ev.Time

	case store.EventObserve:
		delete(armed, ev.ID)
		if ss == nil || ev.Obs == nil {
			return
		}
		if ev.N != len(ss.History) {
			return // duplicate of a snapshotted observation
		}
		var obj tune.Objectives
		obj.Restore(worstRuntime(ss.History))
		ss.History = append(ss.History, HistoryEntry{Observation: *ev.Obs, Objective: obj.Assign(ev.Obs.RuntimeSec, ev.Obs.Aborted)})
		// Whether the observation consumed an outstanding suggestion only
		// the tuner knows; rebuildSession finds out as it replays the
		// records' Suggested bits.
		ss.Suggested = false
		ss.LastUsed = ev.Time
		m.observations.Add(1)

	case store.EventClose:
		delete(live, ev.ID)
		m.shardFor(ev.ID).closed[ev.ID] = ev.Seq

	case store.EventHarvest:
		if ev.Repo == nil {
			return
		}
		if _, ok := m.harvested[ev.ID]; ok {
			return // already folded into the snapshot repository
		}
		m.repo.Entries = append(m.repo.Entries, *ev.Repo)
		m.harvested[ev.ID] = struct{}{}
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
