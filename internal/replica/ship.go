package replica

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"

	"relm/internal/fault"
	"relm/internal/obs"
)

// fpShipChunk is the shipper's failpoint, evaluated per shipped segment
// chunk with the follower's name as the tag — a schedule can delay or
// sever replication to one follower without touching the data path.
// Injected errors fail the ship cycle like any transport error: the
// follower's lag grows and the next cycle retries from its ack.
var fpShipChunk = fault.Register("replica.ship.chunk")

// The shipper half of a Set: one background loop that, every Interval,
// brings each follower up to date with the local log. A cycle per
// follower is: fetch the follower's replica status (its ack: per-segment
// high-water offsets plus the snapshot hash it holds), ship the snapshot
// if it changed, then ship each segment's missing suffix in index order,
// chunked. Shipping the snapshot FIRST matters: segment requests carry
// the primary's minimum live segment index and the follower prunes its
// replica below it — that is only safe once the snapshot that folded
// those segments in has landed.

// followerState tracks one ship target.
type followerState struct {
	peer Peer
	base *url.URL // peer.URL as wire.ParseBase read it

	mu          sync.Mutex
	segsBehind  int
	bytesBehind int64
	lastAck     time.Time
	lastErr     string
	ships       uint64
	shipErrors  uint64
	fenced      bool // the follower promoted our replica: stop shipping
	fencedLog   bool
}

func (f *followerState) snapshot() FollowerStatus {
	f.mu.Lock()
	defer f.mu.Unlock()
	return FollowerStatus{
		Follower:       f.peer.Name,
		URL:            f.peer.URL,
		SegmentsBehind: f.segsBehind,
		BytesBehind:    f.bytesBehind,
		LastAck:        f.lastAck,
		LastError:      f.lastErr,
		Ships:          f.ships,
		ShipErrors:     f.shipErrors,
		Promoted:       f.fenced,
	}
}

func (f *followerState) ack() {
	f.mu.Lock()
	f.ships++
	f.lastAck = time.Now()
	f.lastErr = ""
	f.mu.Unlock()
}

func (f *followerState) fail(err error) {
	f.mu.Lock()
	f.shipErrors++
	f.lastErr = err.Error()
	f.mu.Unlock()
}

// Followers returns the replication targets for the named primary: the
// top factor peers (self excluded) by rendezvous score on the primary's
// name — the same highest-random-weight recipe the router places sessions
// with, so follower load spreads evenly and deterministically without
// any coordination.
func Followers(self string, peers []Peer, factor int) []Peer {
	var out []Peer
	for _, p := range peers {
		if p.Name != self && p.Name != "" {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		si, sj := Rendezvous(out[i].Name, self), Rendezvous(out[j].Name, self)
		if si != sj {
			return si > sj
		}
		return out[i].Name < out[j].Name
	})
	if factor < len(out) {
		out = out[:factor]
	}
	return out
}

// Rendezvous is the highest-random-weight score of placing key on the named
// node — the one placement function of the cluster: the router picks a
// session's owner with it, Followers picks a primary's replicas. It is
// FNV-1a over "name\x00key" pushed through a splitmix64 finalizer. The
// finalizer matters: raw FNV of short strings leaves the name's contribution
// parked in the high bits, so one node would outscore the rest for almost
// every key. The winner of a key is the node with the highest score, so
// every caller agrees statelessly and removing a node remaps only the keys
// it owned.
func Rendezvous(name, key string) uint64 {
	// FNV-1a inlined: hash/fnv allocates its state on every New64a, and the
	// router scores once per node per routed request.
	const prime = 1099511628211
	x := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		x ^= uint64(name[i])
		x *= prime
	}
	x *= prime // the \x00 separator (XOR with 0 is identity)
	for i := 0; i < len(key); i++ {
		x ^= uint64(key[i])
		x *= prime
	}
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func (s *Set) shipLoop() {
	defer s.wg.Done()
	t := time.NewTicker(s.opts.Interval)
	defer t.Stop()
	for {
		select {
		case <-s.ctx.Done():
			return
		case <-t.C:
		}
		s.SyncNow()
	}
}

// SyncNow runs one full ship cycle to every follower synchronously and
// returns the first error (the loop ignores it; tests and benchmarks key
// on it). Safe to call concurrently with the background loop only from
// tests that did not start one.
func (s *Set) SyncNow() error {
	var first error
	for _, f := range s.followers {
		if err := s.shipOnce(s.ctx, f); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// errPromotedAway ends a ship cycle when the follower answers 410: it
// promoted our replica, so there is nothing left to ship it.
var errPromotedAway = errors.New("replica: follower promoted our replica")

// shipOnce brings one follower up to date with the local log. Each cycle
// carries one trace ID on its requests, so the follower's ingest traces
// group a whole catch-up pass under one identifier.
func (s *Set) shipOnce(ctx context.Context, f *followerState) error {
	f.mu.Lock()
	fenced := f.fenced
	f.mu.Unlock()
	if fenced {
		return nil
	}
	var start time.Time
	if s.opts.ShipHist != nil {
		start = time.Now()
	}
	err := s.shipDelta(ctx, f, obs.MintTraceID())
	if !start.IsZero() {
		s.opts.ShipHist.Record(time.Since(start))
	}
	if errors.Is(err, errPromotedAway) {
		return nil
	}
	if err != nil {
		f.fail(err)
	}
	return err
}

func (s *Set) shipDelta(ctx context.Context, f *followerState, trace string) error {
	self := "?primary=" + url.QueryEscape(s.opts.Self)
	var st StatusResponse
	if err := s.exchange(ctx, f, trace, http.MethodGet, "/v1/replica/status"+self, nil, &st); err != nil {
		return err
	}
	var mine *PrimaryStatus
	for i := range st.Primaries {
		if st.Primaries[i].Primary == s.opts.Self {
			mine = &st.Primaries[i]
			break
		}
	}
	if mine != nil && mine.Promoted {
		s.fence(f)
		return nil
	}
	f.ack()

	// Snapshot first (see the file comment for why the order matters), and
	// only its name unless the follower holds another: the bytes are read
	// when they must be sent. Should a compaction replace them between the
	// two calls, the follower finds they are not what h names, installs
	// nothing, and the next cycle sends the new ones.
	if h := s.opts.Source.SnapshotHash(); h != "" && (mine == nil || mine.SnapshotHash != h) {
		snap, err := s.opts.Source.ReadSnapshotRaw()
		if err != nil {
			return err
		}
		if _, err := s.ingest(ctx, f, trace, "/v1/replica/snapshot"+self+"&hash="+h, snap); err != nil {
			return err
		}
	}

	remote := make(map[uint64]int64)
	if mine != nil {
		for _, seg := range mine.Segments {
			remote[seg.Index] = seg.Bytes
		}
	}
	local := s.opts.Source.Segments()
	if len(local) == 0 {
		s.setLag(f, 0, 0)
		return nil
	}
	min := local[0].Index
	// One buffer for the cycle, grown to its largest chunk: a follower that
	// is caught up costs none, one a tail behind costs the tail.
	var buf []byte
	for _, seg := range local {
		off := remote[seg.Index]
		for off < seg.Bytes {
			n := int64(chunkBytes)
			if rest := seg.Bytes - off; rest < n {
				n = rest
			}
			if int64(len(buf)) < n {
				buf = make([]byte, n)
			}
			read, err := s.opts.Source.ReadSegmentAt(seg.Index, off, buf[:n])
			if err != nil {
				if errors.Is(err, os.ErrNotExist) {
					break // compacted away mid-cycle; next cycle re-lists
				}
				return err
			}
			size, err := s.shipChunk(ctx, f, trace, seg.Index, off, min, buf[:read])
			if err != nil {
				var oe *OffsetError
				if errors.As(err, &oe) && oe.Size != off {
					off = oe.Size // resume where the follower actually is
					if off > seg.Bytes {
						return fmt.Errorf("replica: follower %s ahead of local segment %d (%d > %d)", f.peer.Name, seg.Index, off, seg.Bytes)
					}
					continue
				}
				return err
			}
			off = size
			remote[seg.Index] = size
		}
	}
	s.updateLag(f, remote)
	return nil
}

// updateLag recomputes the follower's lag against a fresh local listing —
// appends that landed during the cycle count as lag until the next one.
func (s *Set) updateLag(f *followerState, remote map[uint64]int64) {
	var segs int
	var b int64
	for _, seg := range s.opts.Source.Segments() {
		if d := seg.Bytes - remote[seg.Index]; d > 0 {
			segs++
			b += d
		}
	}
	s.setLag(f, segs, b)
}

func (s *Set) setLag(f *followerState, segs int, bytesBehind int64) {
	f.mu.Lock()
	f.segsBehind = segs
	f.bytesBehind = bytesBehind
	f.mu.Unlock()
}

// fence marks the follower as having promoted our replica. A fenced
// primary that is still alive is the partition case: it keeps serving its
// local sessions but its log no longer replicates — the README's
// failure-mode walkthrough tells operators to drain or wipe such a node.
func (s *Set) fence(f *followerState) {
	f.mu.Lock()
	logIt := !f.fencedLog
	f.fenced = true
	f.fencedLog = true
	f.mu.Unlock()
	if logIt {
		s.logf("replica: follower %s promoted our replica; shipping to it stopped", f.peer.Name)
	}
}

func (s *Set) shipChunk(ctx context.Context, f *followerState, trace string, segment uint64, offset int64, min uint64, data []byte) (int64, error) {
	if fp := fpShipChunk.EvalTag(f.peer.Name); fp != nil {
		switch fp.Action {
		case fault.Latency, fault.Stall:
			fp.Sleep()
		default:
			return 0, fmt.Errorf("replica: ship to %s: %w", f.peer.Name, fp.Err)
		}
	}
	return s.ingest(ctx, f, trace, "/v1/replica/segments?primary="+url.QueryEscape(s.opts.Self)+
		"&segment="+strconv.FormatUint(segment, 10)+
		"&offset="+strconv.FormatInt(offset, 10)+
		"&min="+strconv.FormatUint(min, 10), data)
}

// ingest posts one chunk or snapshot; an acked one counts as a ship and
// returns the replica's new size.
func (s *Set) ingest(ctx context.Context, f *followerState, trace, pathQuery string, data []byte) (int64, error) {
	var ack IngestResponse
	err := s.exchange(ctx, f, trace, http.MethodPost, pathQuery, data, &ack)
	if err == nil {
		f.ack()
	}
	return ack.Size, err
}

// exchangeTimeout bounds one request of a ship cycle; Close cuts it shorter.
const exchangeTimeout = 10 * time.Second

// chunkBytes caps one ship request's body.
const chunkBytes = 1 << 20

// exchange sends one request of a ship cycle to the follower (Handler is
// the other end) and reads the answer the way the protocol means it: 200
// acks and decodes into out, 409 is an offset mismatch carrying the size to
// resume from, 410 means the replica was promoted out from under us.
func (s *Set) exchange(ctx context.Context, f *followerState, trace, method, pathQuery string, data []byte, out any) error {
	status, _, body, err := s.client.Do(ctx, time.Now().Add(exchangeTimeout), method, f.base.Host, f.base.Path+pathQuery, trace, "application/octet-stream", data, 16<<20)
	if err != nil {
		return err
	}
	switch status {
	case http.StatusOK:
		if err := json.Unmarshal(body, out); err != nil {
			return fmt.Errorf("replica: answer from %s: %w", f.peer.Name, err)
		}
		return nil
	case http.StatusConflict:
		var ack IngestResponse
		if err := json.Unmarshal(body, &ack); err != nil {
			return fmt.Errorf("replica: conflict from %s: %w", f.peer.Name, err)
		}
		return &OffsetError{Size: ack.Size}
	case http.StatusGone:
		s.fence(f)
		return errPromotedAway
	default:
		return fmt.Errorf("replica: %s %s on %s: HTTP %d: %s", method, pathQuery, f.peer.Name, status, firstLine(body))
	}
}

func firstLine(b []byte) string {
	if i := bytes.IndexByte(b, '\n'); i >= 0 {
		b = b[:i]
	}
	if len(b) > 200 {
		b = b[:200]
	}
	return string(b)
}
