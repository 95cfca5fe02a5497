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
// events to the write-ahead log, replaying snapshot + log into a fresh
// Manager (crash recovery), and compacting the log into snapshots.
//
// Replay is idempotent: observe events carry a per-session ordinal and are
// applied only when they extend the session's history, create/warm/close
// events are no-ops when already reflected, and harvest events are keyed
// by session ID. The snapshot and the log may therefore overlap — the
// snapshotter never stops the world, and a crash between the snapshot
// rename and the log rewrite loses nothing.

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
// (0 without a store or during replay) and the append error. Callers on
// the durability path — Create and Observe, whose acks promise the event
// survives recovery — fail the operation on error (journal-before-apply);
// advisory events (suggest, harvest, close tombstones) ignore it. Either
// way the last failure is surfaced through Metrics.
func (m *Manager) journal(ev *store.Event) (uint64, error) {
	if m.opts.Store == nil || m.replaying {
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

// snapshotter compacts the log whenever journal signals it has grown past
// SnapshotEvery events.
func (m *Manager) snapshotter() {
	defer m.wg.Done()
	for {
		select {
		case <-m.quit:
			return
		case <-m.snapCh:
			if err := m.Snapshot(); err != nil {
				msg := err.Error()
				m.journalErr.Store(&msg)
			}
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
// It runs before the Manager's goroutines start, with journaling
// suppressed.
func (m *Manager) restore(snap *store.Snapshot, events []store.Event) ([]*Session, error) {
	m.replaying = true
	defer func() { m.replaying = false }()

	if snap != nil {
		m.nextID.Store(snap.NextID)
		m.evictions.Store(snap.Evictions)
		// The counters resume from the snapshot; events the log replays on
		// top (only those not already reflected) add to them.
		m.observations.Store(snap.Observations)
		m.warmStarts.Store(snap.WarmStarts)
		m.repoHits.Store(snap.RepoHits)
		m.repoEvictions.Store(snap.RepoEvictions)
		// Snapshotted tombstones outlived their compaction fence, so their
		// close events are still in the log; replay rebinds the real seq.
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
			s, err := m.rebuildSession(ss)
			if err != nil {
				// A session this build can no longer rebuild (e.g. a
				// removed workload) must not brick recovery of the rest —
				// same degradation as the EventCreate replay path.
				msg := fmt.Sprintf("restore session %s: %v", ss.ID, err)
				m.journalErr.Store(&msg)
				continue
			}
			sh := m.shardFor(s.id)
			sh.sessions[s.id] = s
			m.count.Add(1)
		}
	}
	for i := range events {
		m.applyEvent(&events[i])
	}
	// Replayed harvest events may have refilled the repository past its
	// bound (an eviction is durable only once the next snapshot lands);
	// re-converge on the capacity. These re-evictions are not new lifetime
	// evictions — the counter was restored above.
	m.repoMu.Lock()
	m.repo.EvictDown(m.opts.RepoCapacity)
	m.repoMu.Unlock()

	var autos []*Session
	for _, sh := range m.shards {
		for _, s := range sh.sessions {
			if m.settle(s) {
				autos = append(autos, s)
			}
		}
	}
	return autos, nil
}

// settle finishes a rebuilt session once its history is complete (after
// the log replayed on top of the snapshot, or after Adopt rebuilt a
// hand-over): it aligns the evaluator's bookkeeping with the history,
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
// taken. Callers settle the session once nothing more will be replayed
// into it.
func (m *Manager) rebuildSession(ss store.SessionSnapshot) (*Session, error) {
	s, err := m.buildSession(ss.ID, specFromRecord(ss.Spec), ss.Created)
	if err != nil {
		return nil, err
	}
	s.state = ss.State
	s.lastUsed = ss.LastUsed
	s.harvested = ss.Harvested
	// No warm-start counter bump: restore resumes the total from the
	// snapshot, Adopt counts its own.
	if ss.Warm != nil && applyWarm(s.tuner, ss.Warm) {
		s.warm = ss.Warm
	}
	for _, h := range ss.History {
		s.replayObservation(h.Observation())
	}
	if ss.Suggested {
		// Arming is idempotent: suggestions are cached until consumed.
		s.tuner.Suggest()
		s.suggested = true
	}
	return s, nil
}

// buildSession constructs an un-observed session shell: Create, replay of a
// journaled create and rebuildSession all start from it. An empty id is
// assigned at registration.
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

// replayObservation re-observes one recorded experiment into the session's
// tuner and history. The objective is re-derived through the session's
// abort-penalty watermark, reproducing the original assignment exactly
// (the watermark is a deterministic function of the observation sequence).
//
// The recorded Suggested bit replays the suggest/observe interleaving: a
// suggestion is re-armed via Suggest exactly when one was outstanding
// live. DDPG's solicited/unsolicited/no-pending branches (replay buffer,
// training, state folding) all depend on that distinction; BO/GBO/RelM
// suggestions are cached between observations, so arming is state-neutral
// for them.
func (s *Session) replayObservation(obs store.Observation) {
	if obs.Suggested && !s.suggested {
		s.tuner.Suggest()
		s.suggested = true
	}
	smp := tune.Sample{
		Config:     obs.Config,
		X:          s.space.Encode(obs.Config),
		RuntimeSec: obs.RuntimeSec,
		Objective:  s.obj.Assign(obs.RuntimeSec, obs.Aborted),
		Stats:      obs.Stats,
	}
	smp.Result.RuntimeSec = obs.RuntimeSec
	smp.Result.Aborted = obs.Aborted
	smp.Result.GCOverhead = obs.GCOverhead
	if s.suggested && s.tuner.Suggest() == smp.Config {
		s.suggested = false // consumed, as live
	}
	s.tuner.Observe(smp)
	s.history = append(s.history, HistoryEntry{
		Config:     smp.Config,
		RuntimeSec: smp.RuntimeSec,
		Objective:  smp.Objective,
		Aborted:    obs.Aborted,
		GCOverhead: obs.GCOverhead,
		Stats:      obs.Stats,
		Suggested:  obs.Suggested,
	})
}

// applyEvent folds one journaled event into the Manager during replay.
// Events already reflected by the snapshot (or by an earlier duplicate)
// are skipped.
func (m *Manager) applyEvent(ev *store.Event) {
	sh := m.shardFor(ev.ID)
	switch ev.Type {
	case store.EventCreate:
		m.bumpNextID(ev.ID)
		if _, ok := sh.sessions[ev.ID]; ok {
			return // already in the snapshot
		}
		if _, ok := sh.closed[ev.ID]; ok {
			return // tombstoned later in the log or by the snapshot
		}
		if ev.Spec == nil {
			return
		}
		spec := specFromRecord(*ev.Spec)
		s, err := m.buildSession(ev.ID, spec, ev.Time)
		if err != nil {
			// An undecodable spec (e.g. a workload this build no longer
			// ships) must not block recovery of every other session.
			msg := fmt.Sprintf("replay create %s: %v", ev.ID, err)
			m.journalErr.Store(&msg)
			return
		}
		sh.sessions[ev.ID] = s
		m.count.Add(1)

	case store.EventWarm:
		s := sh.sessions[ev.ID]
		if s == nil || s.warm != nil || ev.Warm == nil {
			return
		}
		if applyWarm(s.tuner, ev.Warm) {
			s.warm = ev.Warm
			m.warmStarts.Add(1)
		}

	case store.EventSuggest:
		if s := sh.sessions[ev.ID]; s != nil {
			s.lastUsed = ev.Time
			// Re-arm the suggestion as live did: trailing suggests (after
			// the last observation) leave the same pending action and RNG
			// position the pre-crash tuner held. Arming is idempotent —
			// suggestions are cached until consumed.
			s.tuner.Suggest()
			s.suggested = true
		}

	case store.EventObserve:
		s := sh.sessions[ev.ID]
		if s == nil || ev.Obs == nil {
			return
		}
		if ev.N != len(s.history) {
			return // duplicate of a snapshotted observation
		}
		s.replayObservation(*ev.Obs)
		s.lastUsed = ev.Time
		m.observations.Add(1)

	case store.EventClose:
		if s, ok := sh.sessions[ev.ID]; ok {
			delete(sh.sessions, ev.ID)
			m.count.Add(-1)
			s.state = StateClosed
		}
		sh.closed[ev.ID] = ev.Seq

	case store.EventHarvest:
		if ev.Repo == nil {
			return
		}
		if _, ok := m.harvested[ev.ID]; ok {
			return // already folded into the snapshot repository
		}
		m.repo.Entries = append(m.repo.Entries, *ev.Repo)
		m.harvested[ev.ID] = struct{}{}
		if s := sh.sessions[ev.ID]; s != nil {
			s.harvested = true
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

// bumpNextID advances the session-ID counter past a replayed ID so new
// sessions never collide with journaled ones.
func (m *Manager) bumpNextID(id string) {
	num, ok := m.sessionNum(id)
	if !ok {
		return
	}
	for {
		cur := m.nextID.Load()
		if cur >= num || m.nextID.CompareAndSwap(cur, num) {
			return
		}
	}
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
