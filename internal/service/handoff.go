package service

import (
	"fmt"
	"sort"
	"time"

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
				m.removeLocked(sh, id)
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
// The shell's clock stands at the last record, so a session the replay
// harvests again (its advisory harvest record was lost) is stamped the
// same on every replay, and restore settles sessions in ID order, so
// several such harvests enter the repository in the same order whatever
// the cores did: the report is a function of snap and events.
func BuildHandoff(snap *store.Snapshot, events []store.Event, node string) (HandoffReport, error) {
	var last time.Time
	if snap != nil {
		last = snap.TakenAt
	}
	if n := len(events); n > 0 {
		last = events[n-1].Time
	}
	m := newManager(Options{NodeID: node, Now: func() time.Time { return last }})
	if _, err := m.restore(snap, events); err != nil {
		return HandoffReport{}, err
	}
	return m.handOver(), nil
}

// Adopt installs a session another node handed over (POST
// /v1/handoff/adopt). The session is rebuilt by rebuildSession like a
// crash-recovered one and admitted like a created one: the same gates
// (draining, closed, MaxSessions, duplicate or tombstoned ID → ErrExists)
// and the same single create record, which carries the whole snapshot, so
// this node's followers and its own recovery replay it like any other
// session. A refused adopt leaves nothing behind; a snapshot whose history
// or warm start is longer than maxHistory is refused first. Auto sessions
// go back on the worker pool.
func (m *Manager) Adopt(ss store.SessionSnapshot) (Status, error) {
	if err := checkBound("session "+ss.ID, len(ss.History)); err != nil {
		return Status{}, err
	}
	if ss.Warm != nil {
		if err := checkBound("the warm start of session "+ss.ID, len(ss.Warm.Points)); err != nil {
			return Status{}, err
		}
	}
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
	return m.admit(s)
}
