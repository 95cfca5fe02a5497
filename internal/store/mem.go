package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"
)

// Mem is the in-memory Store: the same WAL + snapshot semantics as File
// with no disk underneath. Events and snapshots pass through the JSON
// codec, so Mem exercises the exact on-disk schema — tests that pass
// against Mem behave identically against File. State dies with the
// process; use it for tests and ephemeral servers.
type Mem struct {
	mu          sync.Mutex
	closed      bool
	seq         uint64
	log         [][]byte // one marshaled event per entry
	snap        []byte   // marshaled snapshot, nil if none
	walBytes    int64
	appended    int64 // log bytes appended, never decreasing
	snapWritten int64 // snapshot bytes written, all compactions
	snapshots   uint64
	lastComp    time.Time
}

var _ Store = (*Mem)(nil)

// NewMem returns an empty in-memory store.
func NewMem() *Mem { return &Mem{} }

// Append journals one event.
func (s *Mem) Append(ev *Event) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, errors.New("store: append to closed store")
	}
	s.seq++
	ev.Seq = s.seq
	buf, err := json.Marshal(ev)
	if err != nil {
		s.seq--
		return 0, fmt.Errorf("store: encode event: %w", err)
	}
	s.log = append(s.log, buf)
	s.walBytes += int64(len(buf)) + 1
	s.appended += int64(len(buf)) + 1
	return ev.Seq, nil
}

// Seq returns the last assigned sequence number.
func (s *Mem) Seq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seq
}

// Load returns the snapshot and the live log.
func (s *Mem) Load() (*Snapshot, []Event, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var snap *Snapshot
	if s.snap != nil {
		snap = new(Snapshot)
		if err := json.Unmarshal(s.snap, snap); err != nil {
			return nil, nil, fmt.Errorf("store: decode snapshot: %w", err)
		}
	}
	events := make([]Event, 0, len(s.log))
	for _, line := range s.log {
		var ev Event
		if err := json.Unmarshal(line, &ev); err != nil {
			return nil, nil, fmt.Errorf("store: decode event: %w", err)
		}
		events = append(events, ev)
	}
	return snap, events, nil
}

// Compact stores the snapshot and drops log entries at or below its fence.
func (s *Mem) Compact(snap *Snapshot) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("store: compact closed store")
	}
	buf, err := json.Marshal(snap)
	if err != nil {
		return fmt.Errorf("store: encode snapshot: %w", err)
	}
	s.snap = buf
	s.snapWritten += int64(len(buf))

	// Cheap pre-check mirroring File: the log is append-ordered by seq, so
	// if even the first event is past the fence nothing can be pruned —
	// skip the rewrite entirely.
	if len(s.log) > 0 && firstSeq(s.log[0]) <= snap.Fence {
		var keep [][]byte
		var bytes int64
		for _, line := range s.log {
			var ev Event
			if err := json.Unmarshal(line, &ev); err != nil {
				return fmt.Errorf("store: decode event: %w", err)
			}
			if ev.Seq <= snap.Fence {
				continue
			}
			keep = append(keep, line)
			bytes += int64(len(line)) + 1
		}
		s.log, s.walBytes = keep, bytes
	}
	s.snapshots++
	s.lastComp = time.Now()
	return nil
}

// firstSeq decodes only the sequence number of a marshaled event.
func firstSeq(line []byte) uint64 {
	var ev struct {
		Seq uint64 `json:"seq"`
	}
	if err := json.Unmarshal(line, &ev); err != nil {
		return 0
	}
	return ev.Seq
}

// Metrics reports log size and compaction counters. Mem is a single
// implicit segment.
func (s *Mem) Metrics() Metrics {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Metrics{
		WALBytes:             s.walBytes,
		WALEvents:            uint64(len(s.log)),
		Seq:                  s.seq,
		Segments:             1,
		Snapshots:            s.snapshots,
		LastCompaction:       s.lastComp,
		SnapshotBytes:        int64(len(s.snap)),
		AppendedBytes:        s.appended,
		SnapshotBytesWritten: s.snapWritten,
	}
}

// Close marks the store closed.
func (s *Mem) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	return nil
}
