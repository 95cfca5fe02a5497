package service

import (
	"fmt"
	"sort"

	"relm/internal/bo"
	"relm/internal/store"
)

// This file is the hand-over of sessions between nodes. There is one unit
// (store.SessionSnapshot — what compaction already writes), one producer
// (handOver, called by Drain on the live manager and by BuildHandoff on a
// dead primary's replayed replica) and one consumer (Adopt, which rebuilds
// the session with the same rebuildSession crash recovery uses). A session
// therefore resumes on its next owner exactly as it would have on a
// restarted node: same history, same next suggestion.

// HandoffReport is what a node gives up when it leaves — planned (Drain) or
// not (a promoted replica): its non-terminal sessions, sorted by ID, plus
// its model repository. It is its own wire body for POST /v1/drain and
// POST /v1/replica/promote; each session is POSTed as-is to its successor's
// /v1/handoff/adopt.
type HandoffReport struct {
	Node     string                  `json:"node,omitempty"`
	Sessions []store.SessionSnapshot `json:"sessions"`
	Repo     []bo.RepoEntry          `json:"models"`
}

// resumable reports whether a session in this state still has work to do —
// the sessions a hand-over moves; done, failed and closed ones stay behind.
func resumable(state string) bool {
	return state == StateActive || state == StateQueued || state == StateRunning
}

// handOver detaches every non-terminal session from the manager and
// returns them with the model repository. Each session is cut under its own
// lock — snapshotted, closed, tombstoned, the close journaled — so an
// observation is either in the snapshot or refused with ErrClosed, never
// acknowledged and left behind. Harvested is cleared so that finishing on
// the successor still feeds the repository there. Terminal sessions stay:
// they have nothing left to continue.
func (m *Manager) handOver() HandoffReport {
	rep := HandoffReport{Node: m.opts.NodeID, Sessions: []store.SessionSnapshot{}}
	now := m.opts.Now()
	for _, sh := range m.shards {
		first := len(rep.Sessions)
		sh.mu.Lock()
		for id, s := range sh.sessions {
			s.mu.Lock()
			if resumable(s.state) {
				ss := sessionSnapshot(s)
				ss.Harvested = false
				rep.Sessions = append(rep.Sessions, ss)
				s.state = StateClosed
				delete(sh.sessions, id)
				sh.closed[id] = tombstoneKept
				m.count.Add(-1)
			}
			s.mu.Unlock()
		}
		sh.mu.Unlock()
		for _, ss := range rep.Sessions[first:] {
			m.journalClose(ss.ID, now)
		}
	}
	sort.Slice(rep.Sessions, func(i, j int) bool { return rep.Sessions[i].ID < rep.Sessions[j].ID })
	rep.Repo = m.Repository().Entries
	return rep
}

// Drain takes this node out of service: it stops accepting sessions (Create
// and Adopt fail with ErrDraining), force-harvests every live session into
// the model repository — a partial model still transfers (§6.6) — hands the
// non-terminal sessions over, and closes the terminal rest with journaled
// tombstones. The report carries everything the successors need; nothing
// has to be replicated first. Draining is terminal for the process and
// idempotent: a second Drain reports no sessions.
func (m *Manager) Drain() HandoffReport {
	m.draining.Store(true)
	// Barrier: in-flight Creates registered under life.RLock before the
	// flag flipped; wait them out so the passes below see every session.
	m.life.Lock()
	m.life.Unlock() //nolint:staticcheck // empty critical section is the barrier

	for _, s := range m.sessionList() {
		s.mu.Lock()
		if s.state != StateFailed {
			m.harvestLocked(s) // idempotent; done sessions already harvested
		}
		s.mu.Unlock()
	}
	rep := m.handOver()
	for _, s := range m.sessionList() {
		_ = m.CloseSession(s.id)
	}
	return rep
}

// ExtractHandoff replays the replica directory of a dead primary into a
// hand-over report. The directory must be fenced against further ingest
// first (replica.Set.Promote); opening recovers it exactly like a local
// restart — a torn tail in the replicated active segment is truncated,
// corruption in a sealed replica segment fails the promotion loudly.
func ExtractHandoff(dir, node string) (HandoffReport, error) {
	st, err := store.OpenFile(dir)
	if err != nil {
		return HandoffReport{}, fmt.Errorf("service: open replica: %w", err)
	}
	snap, events, err := st.Load()
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return HandoffReport{}, fmt.Errorf("service: load replica: %w", err)
	}
	return BuildHandoff(snap, events, node)
}

// BuildHandoff replays a snapshot + log — exactly the crash recovery the
// node itself would have run — into a detached Manager shell that never
// starts goroutines or journals anything, and hands its sessions over.
func BuildHandoff(snap *store.Snapshot, events []store.Event, node string) (HandoffReport, error) {
	m := newManager(Options{NodeID: node})
	if _, err := m.restore(snap, events); err != nil {
		return HandoffReport{}, err
	}
	return m.handOver(), nil
}

// Adopt installs a session another node handed over (POST
// /v1/handoff/adopt). The session is rebuilt by rebuildSession like a
// crash-recovered one, registered through the same gates as a created one
// (draining, closed, MaxSessions, duplicate or tombstoned ID → ErrExists),
// and journaled with the ordinary event types — create, warm, one observe
// per history entry with its ordinal, a trailing suggest — so this node's
// followers and its own recovery replay it like any other session. Auto
// sessions go back on the worker pool.
func (m *Manager) Adopt(ss store.SessionSnapshot) (Status, error) {
	if !resumable(ss.State) {
		return Status{}, fmt.Errorf("service: cannot adopt session %q in state %q", ss.ID, ss.State)
	}
	if err := m.checkID(ss.ID); err != nil {
		return Status{}, err
	}
	s, err := m.rebuildSession(ss)
	if err != nil {
		return Status{}, err
	}

	events := make([]store.Event, 0, 2+len(ss.History))
	events = append(events, store.Event{Type: store.EventCreate, ID: ss.ID, Time: ss.Created, Spec: &ss.Spec})
	if s.warm != nil {
		events = append(events, store.Event{Type: store.EventWarm, ID: ss.ID, Time: ss.Created, Warm: s.warm})
	}
	for i, h := range ss.History {
		events = append(events, store.Event{Type: store.EventObserve, ID: ss.ID, Time: ss.LastUsed, N: i, Obs: &h.Observation})
	}

	m.life.RLock()
	defer m.life.RUnlock()
	// s.mu is held from before the session becomes visible until its log is
	// complete: a client call that finds it waits, and journals after it.
	// (Taking a shard lock under s.mu inverts the usual order, safely: until
	// register returns nobody else can reach s to wait on it.)
	s.mu.Lock()
	if err := m.register(s); err != nil {
		s.mu.Unlock()
		return Status{}, err
	}
	logged := 0
	for ; logged < len(events); logged++ {
		if _, jerr := m.journal(&events[logged]); jerr != nil {
			err = fmt.Errorf("%w: %w", ErrJournal, jerr)
			break
		}
	}
	if err == nil {
		if s.suggested {
			// Advisory, as in Suggest: rebuildSession re-armed the tuner.
			m.journal(&store.Event{Type: store.EventSuggest, ID: s.id, Time: ss.LastUsed})
		}
		if m.settle(s) {
			select {
			case m.jobs <- s:
			default:
				err = ErrBusy
			}
		}
	}
	if err != nil {
		s.state = StateClosed
		s.mu.Unlock()
		// Once the create event is in the log, backing out takes a
		// tombstone: a partial history with no close would resurrect on
		// recovery beside the copy the router places elsewhere. Before
		// that, the ID stays free.
		if logged == 0 {
			m.unregister(s)
		} else {
			m.removeSession(s.id)
			m.journalClose(s.id, m.opts.Now())
		}
		return Status{}, err
	}
	defer s.mu.Unlock()
	if s.warm != nil {
		m.warmStarts.Add(1)
	}
	m.observations.Add(int64(len(s.history)))
	return m.statusLocked(s), nil
}
