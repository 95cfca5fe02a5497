// Package replica is the WAL replication subsystem: an asynchronous
// log-shipping pipeline that keeps a byte-for-byte copy of each node's
// write-ahead log on one or two follower nodes, so a kill -9 of a primary
// loses nothing that was journaled.
//
// Every node runs one Set, which plays both roles at once:
//
//   - shipper (primary role): a background loop streams the local store's
//     snapshot and WAL segments to the node's followers — sealed segments
//     whole, the active segment as a growing tail — using a catch-up
//     protocol: the follower reports its high-water byte offset per
//     segment, the shipper sends only the delta. Follower placement is
//     rendezvous hashing on the primary's node name, so in a cluster every
//     node is primary for its own log and follower for a share of the
//     others'.
//
//   - ingest (follower role): shipped bytes are appended to a per-primary
//     replica directory under the replica root and fsynced before the ack,
//     so a replica is exactly as durable as the log it mirrors. Offset
//     checks make ingest idempotent: a retried or reordered chunk is
//     rejected with the current size and the shipper resumes from there.
//
// Because segments are append-only and the snapshot is installed
// atomically, a replica directory is at all times a valid store directory:
// promotion (see internal/router) fences further ingest and replays it
// with the same store.OpenFile + service restore path a restarting node
// uses, inheriting the store's crash-recovery semantics — a torn tail in
// the replicated active segment is truncated, corruption in a sealed
// replica fails loudly.
//
// Both halves of the wire protocol live here, to be read, tested and
// changed together: ship.go's exchange sends what handler.go's Handler
// serves (service.NewHandler mounts it). Only /v1/replica/promote is the
// service's: it replays the fenced directory into a hand-over.
package replica

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"relm/internal/fault"
	"relm/internal/obs"
	"relm/internal/store"
	"relm/internal/wire"
)

// fpIngest is the follower-side failpoint, evaluated per ingested chunk
// with the primary's name as the tag. An injected error refuses the chunk
// before any disk I/O: the shipper sees a failed cycle and retries from
// the follower's last ack, so the replica stays consistent — just behind.
var fpIngest = fault.Register("replica.ingest")

// Peer names one relm-serve node: a replication peer, or a router's
// backend.
type Peer struct {
	Name string
	URL  string
}

// ParsePeers splits "a=http://host:port,b=..." into peers, blanks around
// and between the pairs ignored: relm-serve's -replicate-to and
// relm-router's -backends are both such a list.
func ParsePeers(s string) ([]Peer, error) {
	var out []Peer
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, u, ok := strings.Cut(part, "=")
		if !ok || name == "" || u == "" {
			return nil, fmt.Errorf("bad peer %q (want 'name=url')", part)
		}
		out = append(out, Peer{Name: name, URL: u})
	}
	if len(out) == 0 {
		return nil, errors.New("no peers given (want 'name=url,name=url')")
	}
	return out, nil
}

// Source is the local log a Set ships from; *store.File implements it.
type Source interface {
	// Segments lists the live log's segments in index order; every
	// reported byte is stable and readable.
	Segments() []store.SegmentInfo
	// ReadSegmentAt reads segment bytes at an offset (os.ErrNotExist when
	// a concurrent compaction pruned the segment).
	ReadSegmentAt(index uint64, off int64, p []byte) (int, error)
	// ReadSnapshotRaw returns the latest compacted snapshot, nil if none.
	ReadSnapshotRaw() ([]byte, error)
	// SnapshotHash is the store.HashHex of that snapshot, "" if none,
	// answered without reading it.
	SnapshotHash() string
}

// Options configures a Set. Zero values select sensible defaults.
type Options struct {
	// Self is this node's name; it is excluded from follower placement and
	// stamped on status responses.
	Self string
	// Peers is the cluster membership (including or excluding Self — Self
	// is filtered out). Followers are the top Factor peers by rendezvous
	// score on Self's name.
	Peers []Peer
	// Factor is how many followers receive this node's log (default 1,
	// capped at len(Peers) after removing Self; New refuses a negative one).
	Factor int
	// Dir is the replica root this node ingests other primaries' logs
	// into (one subdirectory per primary). Empty disables the follower
	// role: ingest requests are rejected.
	Dir string
	// Source is the local log to ship. Nil disables the shipper role.
	Source Source
	// Interval is the ship poll period (default 500ms; New refuses a
	// negative one): the active segment's tail is shipped at most this
	// stale.
	Interval time.Duration
	// Logf, when non-nil, receives replication log lines.
	Logf func(format string, args ...any)
	// ShipHist, when set, records the latency of each ship cycle (one
	// shipOnce pass across all followers); IngestHist records each ingest
	// append/snapshot install on the follower side.
	ShipHist   *obs.Histogram
	IngestHist *obs.Histogram
}

func (o *Options) fill() {
	if o.Factor == 0 {
		o.Factor = 1
	}
	if o.Interval == 0 {
		o.Interval = 500 * time.Millisecond
	}
}

// ErrFenced rejects ingest into a promoted replica: after promotion the
// replica's sessions live elsewhere, and accepting more of the old
// primary's log would fork history. Surfaced to zombie primaries as HTTP
// 410.
var ErrFenced = errors.New("replica: primary promoted, ingest fenced")

// ErrNoReplica reports a promotion request for a primary this node holds
// no replica of.
var ErrNoReplica = errors.New("replica: no replica of that primary")

// OffsetError rejects an out-of-place ingest chunk, carrying the replica
// segment's current size so the shipper can resume from it (HTTP 409).
type OffsetError struct{ Size int64 }

func (e *OffsetError) Error() string {
	return fmt.Sprintf("replica: offset mismatch, segment has %d bytes", e.Size)
}

// Set is one node's replication state: the shipper feeding this node's
// followers and the ingest side holding other primaries' replicas. Safe
// for concurrent use.
type Set struct {
	opts      Options
	followers []*followerState
	// client carries the shipper's requests; exchange hands each its deadline.
	client wire.Client

	mu        sync.Mutex
	primaries map[string]*primaryState
	promoted  uint64

	// ctx is the shipper's lifetime: every ship cycle derives from it, so
	// Close ends the loop and any exchange in flight at once.
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// primaryState is the ingest-side state of one primary's replica.
type primaryState struct {
	mu         sync.Mutex
	name       string
	dir        string
	fenced     bool
	snapHash   string
	lastIngest time.Time
	ingests    uint64
	ingestB    int64
}

// New builds a Set, adopting any replica directories already under
// Options.Dir (a restarted follower resumes where it left off), and
// starts the shipper loop when a Source and at least one follower are
// configured. Call Close to stop shipping.
func New(opts Options) (*Set, error) {
	if opts.Factor < 0 {
		return nil, fmt.Errorf("replica: negative option Factor %d", opts.Factor)
	}
	if opts.Interval < 0 {
		return nil, fmt.Errorf("replica: negative option Interval %v", opts.Interval)
	}
	opts.fill()
	s := &Set{opts: opts, primaries: make(map[string]*primaryState)}
	if opts.Dir != "" {
		if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("replica: create dir: %w", err)
		}
		entries, err := os.ReadDir(opts.Dir)
		if err != nil {
			return nil, fmt.Errorf("replica: read dir: %w", err)
		}
		for _, e := range entries {
			if !e.IsDir() || !validPrimaryName(e.Name()) {
				continue
			}
			p := &primaryState{name: e.Name(), dir: filepath.Join(opts.Dir, e.Name())}
			// A snapshot install this node did not live to finish.
			if err := store.SweepTempFiles(p.dir); err != nil {
				return nil, err
			}
			if buf, err := os.ReadFile(filepath.Join(p.dir, "snapshot.json")); err == nil {
				p.snapHash = store.HashHex(buf)
			}
			s.primaries[e.Name()] = p
		}
	}
	for _, peer := range Followers(opts.Self, opts.Peers, opts.Factor) {
		base, err := wire.ParseBase(peer.URL)
		if err != nil {
			return nil, fmt.Errorf("replica: follower %s: %w", peer.Name, err)
		}
		s.followers = append(s.followers, &followerState{peer: peer, base: base})
	}
	s.ctx, s.cancel = context.WithCancel(context.Background())
	if opts.Source != nil && len(s.followers) > 0 {
		s.wg.Add(1)
		go s.shipLoop()
	}
	return s, nil
}

// Close stops the shipper, cutting short a cycle in flight, and its connections.
func (s *Set) Close() {
	s.cancel()
	s.wg.Wait()
	s.client.Close()
}

func (s *Set) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}

// validPrimaryName rejects names that would escape the replica root or
// collide with file machinery. Node IDs are flag values, not hostile, but
// the ingest endpoint is network-facing.
func validPrimaryName(name string) bool {
	if name == "" || name == "." || name == ".." || len(name) > 128 {
		return false
	}
	return !strings.ContainsAny(name, "/\\\x00")
}

// primary returns (creating if asked) the ingest state for one primary.
func (s *Set) primary(name string, create bool) (*primaryState, error) {
	if !validPrimaryName(name) {
		return nil, fmt.Errorf("replica: bad primary name %q", name)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if p, ok := s.primaries[name]; ok {
		return p, nil
	}
	if !create {
		return nil, ErrNoReplica
	}
	if s.opts.Dir == "" {
		return nil, errors.New("replica: no replica dir configured")
	}
	dir := filepath.Join(s.opts.Dir, name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("replica: create replica dir: %w", err)
	}
	p := &primaryState{name: name, dir: dir}
	s.primaries[name] = p
	return p, nil
}

// Ingest appends one shipped chunk to the replica of primary's segment,
// fsyncing before it returns: once acked, the bytes survive a follower
// machine crash. The append is accepted only at the replica segment's
// exact current size — anything else returns an OffsetError carrying the
// size to resume from, which also makes retries idempotent. min is the
// primary's lowest live segment index; replica segments below it were
// compacted away on the primary (their events are folded into the shipped
// snapshot) and are pruned here.
func (s *Set) Ingest(primaryName string, segment uint64, offset int64, min uint64, data []byte) (int64, error) {
	if s.opts.IngestHist != nil {
		start := time.Now()
		defer func() { s.opts.IngestHist.Record(time.Since(start)) }()
	}
	if segment == 0 {
		return 0, errors.New("replica: segment index must be >= 1")
	}
	if fp := fpIngest.EvalTag(primaryName); fp != nil {
		switch fp.Action {
		case fault.Latency, fault.Stall:
			fp.Sleep()
		default:
			return 0, fmt.Errorf("replica: ingest %s: %w", primaryName, fp.Err)
		}
	}
	p, err := s.primary(primaryName, true)
	if err != nil {
		return 0, err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.fenced {
		return 0, ErrFenced
	}
	path := filepath.Join(p.dir, store.SegmentFileName(segment))
	var size int64
	if st, err := os.Stat(path); err == nil {
		size = st.Size()
	} else if !errors.Is(err, os.ErrNotExist) {
		return 0, fmt.Errorf("replica: stat segment: %w", err)
	}
	if offset != size {
		return size, &OffsetError{Size: size}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return size, fmt.Errorf("replica: open segment: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return size, fmt.Errorf("replica: append: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return size, fmt.Errorf("replica: sync: %w", err)
	}
	if err := f.Close(); err != nil {
		return size, fmt.Errorf("replica: close segment: %w", err)
	}
	p.ingests++
	p.ingestB += int64(len(data))
	p.lastIngest = time.Now()
	if min > 1 {
		s.pruneLocked(p, min)
	}
	return size + int64(len(data)), nil
}

// pruneLocked deletes replica segments below the primary's min live
// index. Safe because the primary only prunes a segment once a snapshot
// covering it is durable — and the snapshot ships before the segment
// deltas that carry the new min. Callers hold p.mu.
func (s *Set) pruneLocked(p *primaryState, min uint64) {
	entries, err := os.ReadDir(p.dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		idx, ok := store.ParseSegmentFileName(e.Name())
		if !ok || idx >= min {
			continue
		}
		_ = os.Remove(filepath.Join(p.dir, e.Name()))
	}
}

// IngestSnapshot installs a shipped snapshot atomically (temp + fsync +
// rename — the same recipe local compaction uses), so the replica never
// holds a torn snapshot. hash is what the shipper says the content hashes
// to (store.HashHex), echoed back on status so the shipper skips unchanged
// snapshots; data that hashes to anything else is refused and the snapshot
// in place stays. "" is a shipper that does not say: the content's own hash
// is kept.
func (s *Set) IngestSnapshot(primaryName string, hash string, data []byte) error {
	if s.opts.IngestHist != nil {
		start := time.Now()
		defer func() { s.opts.IngestHist.Record(time.Since(start)) }()
	}
	got := store.HashHex(data) // megabytes: before the replica's lock, not under it
	p, err := s.primary(primaryName, true)
	if err != nil {
		return err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.fenced {
		return ErrFenced
	}
	if hash != "" && hash != got {
		return fmt.Errorf("replica: snapshot of %s hashes to %s, not the %s it was sent as", primaryName, got, hash)
	}
	if err := store.AtomicWriteFile(filepath.Join(p.dir, "snapshot.json"), data); err != nil {
		return err
	}
	p.snapHash = got
	p.ingests++
	p.ingestB += int64(len(data))
	p.lastIngest = time.Now()
	return nil
}

// Promote fences the replica of primaryName against further ingest and
// returns its directory for replay. Idempotent: promoting an already
// fenced replica returns the same directory, so a retried failover does
// not error out.
func (s *Set) Promote(primaryName string) (string, error) {
	p, err := s.primary(primaryName, false)
	if err != nil {
		return "", err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.fenced {
		p.fenced = true
		s.mu.Lock()
		s.promoted++
		s.mu.Unlock()
		s.logf("replica: promoted replica of %s (%s)", primaryName, p.dir)
	}
	return p.dir, nil
}

// --- status ----------------------------------------------------------------

// SegmentStatus is one replica segment's high-water mark.
type SegmentStatus struct {
	Index uint64 `json:"index"`
	Bytes int64  `json:"bytes"`
}

// PrimaryStatus is the follower's view of one primary it holds a replica
// for — the catch-up protocol's ack: the shipper reads it and sends only
// bytes past the high-water marks.
type PrimaryStatus struct {
	Primary       string          `json:"primary"`
	Segments      []SegmentStatus `json:"segments,omitempty"`
	Bytes         int64           `json:"bytes"`
	SnapshotHash  string          `json:"snapshot_hash,omitempty"`
	SnapshotBytes int64           `json:"snapshot_bytes,omitempty"`
	LastIngest    time.Time       `json:"last_ingest,omitzero"`
	Promoted      bool            `json:"promoted,omitempty"`
}

// FollowerStatus is the shipper's view of one follower it feeds.
type FollowerStatus struct {
	Follower       string    `json:"follower"`
	URL            string    `json:"url"`
	SegmentsBehind int       `json:"segments_behind"`
	BytesBehind    int64     `json:"bytes_behind"`
	LastAck        time.Time `json:"last_ack,omitzero"`
	LastError      string    `json:"last_error,omitempty"`
	Ships          uint64    `json:"ships"`
	ShipErrors     uint64    `json:"ship_errors"`
	Promoted       bool      `json:"promoted,omitempty"`
}

// StatusResponse is the wire form of GET /v1/replica/status: the node's
// two replication roles side by side.
type StatusResponse struct {
	Node      string           `json:"node"`
	Primaries []PrimaryStatus  `json:"primaries"`
	Followers []FollowerStatus `json:"followers"`
}

// IngestResponse is the wire form of a segment/snapshot ingest ack. Size
// is the replica segment's size after (200) or instead of (409) the
// append.
type IngestResponse struct {
	Size  int64  `json:"size"`
	Error string `json:"error,omitempty"`
}

// Status reports both roles: the replicas this node holds (with per-
// segment high-water marks, for the catch-up protocol) and the lag of
// each follower this node ships to.
func (s *Set) Status() StatusResponse {
	out := StatusResponse{Node: s.opts.Self, Primaries: []PrimaryStatus{}, Followers: []FollowerStatus{}}
	s.mu.Lock()
	prims := make([]*primaryState, 0, len(s.primaries))
	for _, p := range s.primaries {
		prims = append(prims, p)
	}
	s.mu.Unlock()
	sort.Slice(prims, func(i, j int) bool { return prims[i].name < prims[j].name })
	for _, p := range prims {
		p.mu.Lock()
		ps := PrimaryStatus{
			Primary:      p.name,
			SnapshotHash: p.snapHash,
			LastIngest:   p.lastIngest,
			Promoted:     p.fenced,
		}
		segs, _ := store.ListSegmentFiles(p.dir)
		for _, seg := range segs {
			ps.Segments = append(ps.Segments, SegmentStatus{Index: seg.Index, Bytes: seg.Bytes})
			ps.Bytes += seg.Bytes
		}
		if st, err := os.Stat(filepath.Join(p.dir, "snapshot.json")); err == nil {
			ps.SnapshotBytes = st.Size()
		}
		p.mu.Unlock()
		out.Primaries = append(out.Primaries, ps)
	}
	for _, f := range s.followers {
		out.Followers = append(out.Followers, f.snapshot())
	}
	return out
}

// Stats are the flattened counters merged into /v1/metrics.
type Stats struct {
	Followers      int     // ship targets configured
	SegmentsBehind int     // total segments not fully acked, all followers
	BytesBehind    int64   // total unacked bytes, all followers
	LastAckAgeSec  float64 // staleness of the oldest follower ack
	Ships          uint64  // successful ship requests
	ShipErrors     uint64  // failed ship requests
	Primaries      int     // replicas held for other nodes
	Ingests        uint64  // ingest requests accepted
	IngestBytes    int64   // bytes ingested
	Promotions     uint64  // replicas this node has had promoted
}

// Stats flattens the Set's state into counters for /v1/metrics.
func (s *Set) Stats() Stats {
	var st Stats
	st.Followers = len(s.followers)
	now := time.Now()
	for _, f := range s.followers {
		fs := f.snapshot()
		st.SegmentsBehind += fs.SegmentsBehind
		st.BytesBehind += fs.BytesBehind
		st.Ships += fs.Ships
		st.ShipErrors += fs.ShipErrors
		if !fs.LastAck.IsZero() {
			if age := now.Sub(fs.LastAck).Seconds(); age > st.LastAckAgeSec {
				st.LastAckAgeSec = age
			}
		}
	}
	s.mu.Lock()
	st.Primaries = len(s.primaries)
	st.Promotions = s.promoted
	prims := make([]*primaryState, 0, len(s.primaries))
	for _, p := range s.primaries {
		prims = append(prims, p)
	}
	s.mu.Unlock()
	for _, p := range prims {
		p.mu.Lock()
		st.Ingests += p.ingests
		st.IngestBytes += p.ingestB
		p.mu.Unlock()
	}
	return st
}
