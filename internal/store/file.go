package store

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"relm/internal/fault"
	"relm/internal/obs"
)

const snapshotFile = "snapshot.json"

// Failpoints on the WAL's write path. Hits are write operations: one per
// unbatched append, one per group-commit batch, one per rotation.
var (
	fpWrite  = fault.Register("store.write")
	fpFsync  = fault.Register("store.fsync")
	fpRotate = fault.Register("wal.rotate")
)

// ErrDegraded marks a WAL that hit a write, flush, or fsync failure it
// cannot reason about and flipped read-only: appends and compactions are
// refused, existing segments stay replayable, and the node advertises the
// state via /v1/healthz so the router routes around it. Continuing to
// append past such a failure could concatenate records onto a torn line or
// re-ack data whose durability is unknown — the classic post-fsync-failure
// trap — so the store degrades instead of wedging or lying.
var ErrDegraded = errors.New("store: wal degraded (read-only)")

// FileOptions tunes a file-backed store.
type FileOptions struct {
	// SyncEachAppend makes every Append durable against machine crashes
	// before it returns. Off by default: the log is flushed to the OS on
	// every append (surviving process crashes) and fsynced on rotation,
	// compaction, and close (bounding loss on machine crashes to the
	// active segment's tail). With it on, appends are group-committed: the
	// background committer coalesces concurrent appends into one
	// write+fsync batch (see groupcommit.go).
	SyncEachAppend bool
	// SegmentBytes rotates the active segment once it reaches this size
	// (default 4 MiB; OpenFile refuses a negative one). Sealed segments are
	// immutable, so compaction only ever deletes them whole — it never
	// rewrites log data.
	SegmentBytes int64
	// CommitInterval is an additional coalescing delay before a batch is
	// flushed. The default (0) flushes a batch as soon as the committer
	// is free, so appends arriving during the previous flush coalesce
	// naturally — batch size tracks the arrival rate times the fsync
	// latency, with no added wait. A positive interval (the latency cap,
	// ~1–2ms) holds each batch open that long to build bigger batches,
	// trading single-append latency for fewer fsyncs. Ignored unless
	// SyncEachAppend is set.
	CommitInterval time.Duration
	// CommitBatch is the group-commit size cap: a batch this large is
	// flushed without waiting out the interval (default 64).
	CommitBatch int
	// AppendHist, when set, records the end-to-end latency of every
	// Append (marshal through durable return); FlushWaitHist records just
	// the time spent waiting on the group-commit flush, so fsync stalls
	// are separable from marshal/write cost.
	AppendHist    *obs.Histogram
	FlushWaitHist *obs.Histogram
}

func (o *FileOptions) fill() {
	if o.SegmentBytes == 0 {
		o.SegmentBytes = 4 << 20
	}
	if o.CommitInterval < 0 {
		o.CommitInterval = 0
	}
	if o.CommitBatch == 0 {
		o.CommitBatch = 64
	}
}

// File is the directory-backed Store: a segmented append-only log
// (wal-000001.jsonl, wal-000002.jsonl, …) plus the latest compacted
// snapshot.json. Appends go to the highest-numbered (active) segment and
// rotate it at a byte threshold; compaction writes the snapshot to a
// temporary file, renames it into place, then deletes sealed segments whose
// events it folded in — every step leaves a state OpenFile can recover
// from, and no step rewrites existing log data.
type File struct {
	dir  string
	opts FileOptions

	// compactMu admits one Compact at a time, across the part of it that
	// runs outside mu. Taken before mu, never while holding it.
	compactMu sync.Mutex
	// step, when set by a test, is told each step boundary of Compact.
	step func(string)

	mu     sync.Mutex
	f      *os.File // active segment
	w      *bufio.Writer
	closed bool
	seq    uint64
	batch  *commitBatch // open group-commit batch, nil outside gc mode
	gc     *committer   // nil unless group commit is enabled
	// opened is what OpenFile decoded, for the first Load to return; the
	// first Append, Compact, Load or Close drops it.
	opened *logImage

	degraded atomic.Pointer[string] // non-nil reason => WAL is read-only

	activeIndex  uint64
	activeBytes  int64
	activeEvents uint64
	sealed       []sealedSegment

	walBytes      int64 // totals across sealed + active segments
	walEvents     uint64
	appended      int64 // log bytes written by this process, never decreasing
	snapshots     uint64
	snapBytes     int64  // the snapshot.json in place: its size
	snapHash      string // and its content hash (HashHex), "" when there is none
	snapWritten   int64  // snapshot bytes written by this process, all compactions
	lastComp      time.Time
	pruned        uint64 // sealed segments deleted by compaction
	batches       uint64 // group-commit batches flushed
	batchedEvents uint64 // records flushed through group commit
}

var _ Store = (*File)(nil)

// logImage is a decoded store directory: the snapshot and the live log.
type logImage struct {
	snap   *Snapshot
	events []Event
}

// OpenFile opens (creating if needed) a file-backed store rooted at dir. A
// directory still holding the pre-segmentation wal.jsonl is refused, naming
// the file. The sequence counter resumes past every event already on disk;
// a torn tail in the active segment — the signature of a crash mid-write —
// is truncated, while an undecodable line in a sealed segment fails the
// open (sealed segments are immutable and fsynced). What the open decodes
// is kept for the first Load, so a restart reads its log once.
func OpenFile(dir string, opts ...FileOptions) (*File, error) {
	var o FileOptions
	if len(opts) > 0 {
		o = opts[0]
	}
	if o.SegmentBytes < 0 {
		return nil, fmt.Errorf("store: negative option SegmentBytes %d", o.SegmentBytes)
	}
	o.fill()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: create dir: %w", err)
	}
	if err := refuseLegacyWAL(dir); err != nil {
		return nil, err
	}
	if err := SweepTempFiles(dir); err != nil {
		return nil, err
	}
	idxs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}

	fs := &File{dir: dir, opts: o, activeIndex: 1}
	img, raw, segs, err := fs.readLog(idxs)
	if err != nil {
		return nil, err
	}
	fs.opened = img
	if img.snap != nil {
		fs.seq = img.snap.Fence
		fs.snapBytes, fs.snapHash = int64(len(raw)), HashHex(raw)
	}
	for _, seg := range segs {
		fs.seq = max(fs.seq, seg.lastSeq)
		fs.walBytes += seg.bytes
		fs.walEvents += seg.events
	}
	if n := len(segs); n > 0 {
		active := segs[n-1]
		// Drop a torn tail before appending: without the truncate, the
		// next event would concatenate onto the partial line and the
		// merged garbage would swallow it on the following recovery.
		if st, err := os.Stat(active.path); err == nil && st.Size() > active.bytes {
			if err := os.Truncate(active.path, active.bytes); err != nil {
				return nil, fmt.Errorf("store: truncate torn wal tail: %w", err)
			}
		}
		fs.activeIndex, fs.activeBytes, fs.activeEvents = active.index, active.bytes, active.events
		fs.sealed = segs[:n-1]
	}

	f, err := os.OpenFile(fs.activePath(), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: open wal segment: %w", err)
	}
	fs.f, fs.w = f, bufio.NewWriter(f)
	if o.SyncEachAppend {
		fs.gc = newCommitter(fs, o.CommitInterval)
	}
	return fs, nil
}

func (s *File) activePath() string { return filepath.Join(s.dir, SegmentFileName(s.activeIndex)) }
func (s *File) snapPath() string   { return filepath.Join(s.dir, snapshotFile) }

// Append journals one event. Without SyncEachAppend it is flushed to the
// OS and returns; with it, the call blocks until the event's group-commit
// batch is fsynced.
func (s *File) Append(ev *Event) (uint64, error) {
	var start time.Time
	if s.opts.AppendHist != nil {
		start = time.Now()
	}
	s.mu.Lock()
	s.opened = nil
	if s.closed {
		s.mu.Unlock()
		return 0, errors.New("store: append to closed store")
	}
	if r := s.degraded.Load(); r != nil {
		s.mu.Unlock()
		return 0, fmt.Errorf("%w: %s", ErrDegraded, *r)
	}
	s.seq++
	ev.Seq = s.seq
	buf, err := json.Marshal(ev)
	if err != nil {
		s.seq--
		s.mu.Unlock()
		return 0, fmt.Errorf("store: encode event: %w", err)
	}
	buf = append(buf, '\n')
	seq := ev.Seq

	if s.gc != nil {
		b := s.gc.join(s, buf)
		s.mu.Unlock()
		var flushStart time.Time
		if s.opts.FlushWaitHist != nil {
			flushStart = time.Now()
		}
		<-b.done
		if !flushStart.IsZero() {
			s.opts.FlushWaitHist.Record(time.Since(flushStart))
		}
		if !start.IsZero() {
			s.opts.AppendHist.Record(time.Since(start))
		}
		return seq, b.err
	}
	err = s.writeLocked(buf, 1, false)
	s.mu.Unlock()
	if !start.IsZero() {
		s.opts.AppendHist.Record(time.Since(start))
	}
	return seq, err
}

// writeLocked appends raw records to the active segment, optionally
// fsyncs, and rotates the segment past the byte threshold. Callers hold
// s.mu.
func (s *File) writeLocked(buf []byte, n int, sync bool) error {
	if r := s.degraded.Load(); r != nil {
		return fmt.Errorf("%w: %s", ErrDegraded, *r)
	}
	if fp := fpWrite.Eval(); fp != nil {
		switch fp.Action {
		case fault.Latency, fault.Stall:
			fp.Sleep()
		case fault.Torn:
			// Persist a partial prefix — the on-disk signature of a crash
			// mid-write — then degrade: any record appended after a torn
			// line would concatenate onto it and vanish at recovery.
			nb := fp.N
			if nb >= len(buf) {
				nb = len(buf) - 1
			}
			if nb > 0 {
				_, _ = s.w.Write(buf[:nb])
			}
			_ = s.w.Flush()
			s.degrade("injected torn write")
			return fmt.Errorf("%w: injected torn write", ErrDegraded)
		case fault.Drop:
			// Report success without writing — acked-but-lost, which exists
			// to prove the chaos soak's durability check catches real loss
			// (TestChaosSoak/drop-is-caught).
			return nil
		default:
			// Clean injected failure before any byte is written: the caller
			// sees a retriable error and the log stays consistent.
			return fmt.Errorf("store: append: %w", fp.Err)
		}
	}
	if _, err := s.w.Write(buf); err != nil {
		s.degrade("write: " + err.Error())
		return fmt.Errorf("store: append: %w", err)
	}
	if err := s.w.Flush(); err != nil {
		s.degrade("flush: " + err.Error())
		return fmt.Errorf("store: flush: %w", err)
	}
	if sync {
		if fp := fpFsync.Eval(); fp != nil {
			switch fp.Action {
			case fault.Latency, fault.Stall:
				fp.Sleep()
			default:
				// The batch reached the OS but its durability is unknown —
				// never retry past a failed fsync, degrade instead.
				s.degrade("injected fsync failure")
				return fmt.Errorf("store: sync: %w", fp.Err)
			}
		}
		if err := s.f.Sync(); err != nil {
			s.degrade("fsync: " + err.Error())
			return fmt.Errorf("store: sync: %w", err)
		}
	}
	s.activeBytes += int64(len(buf))
	s.activeEvents += uint64(n)
	s.walBytes += int64(len(buf))
	s.walEvents += uint64(n)
	s.appended += int64(len(buf))
	if s.activeBytes >= s.opts.SegmentBytes {
		return s.rotateLocked()
	}
	return nil
}

// commitPendingLocked flushes the open group-commit batch, waking its
// appenders. Callers hold s.mu.
func (s *File) commitPendingLocked() {
	b := s.batch
	s.batch = nil
	if b == nil {
		return
	}
	b.err = s.writeLocked(b.buf, b.n, true)
	if b.err == nil {
		s.batches++
		s.batchedEvents += uint64(b.n)
	}
	close(b.done)
}

// rotateLocked seals the active segment and opens the next one. The
// outgoing segment is fsynced BEFORE the successor's file is created:
// recovery reads every non-highest segment strictly, so its contents must
// be durable by the time the successor's directory entry can possibly
// exist — a machine crash anywhere inside the rotation leaves either the
// old segment as the (tail-tolerant) active one or the sealed-only /
// empty-successor layouts, never a torn sealed segment. Callers hold s.mu.
func (s *File) rotateLocked() error {
	if fp := fpRotate.Eval(); fp != nil {
		switch fp.Action {
		case fault.Latency, fault.Stall:
			fp.Sleep()
		default:
			// Clean failure before any I/O: the old segment stays active
			// and rotation retries on the next append.
			return fmt.Errorf("store: rotate: %w", fp.Err)
		}
	}
	if err := s.f.Sync(); err != nil {
		s.degrade("seal fsync: " + err.Error())
		return fmt.Errorf("store: sync sealed segment: %w", err)
	}
	next := s.activeIndex + 1
	nf, err := os.OpenFile(filepath.Join(s.dir, SegmentFileName(next)), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		// The old segment stays active and writable; rotation retries on
		// the next append.
		return fmt.Errorf("store: open next segment: %w", err)
	}
	// The outgoing data is already durable, so a close failure cannot lose
	// events; finish the rotation either way and surface the error.
	closeErr := s.f.Close()
	s.sealed = append(s.sealed, sealedSegment{
		index:   s.activeIndex,
		path:    s.activePath(),
		bytes:   s.activeBytes,
		events:  s.activeEvents,
		lastSeq: s.seq,
	})
	s.activeIndex = next
	s.activeBytes, s.activeEvents = 0, 0
	s.f, s.w = nf, bufio.NewWriter(nf)
	syncDir(s.dir)
	if closeErr != nil {
		return fmt.Errorf("store: close sealed segment: %w", closeErr)
	}
	return nil
}

// degrade flips the WAL read-only with reason; the first failure wins.
func (s *File) degrade(reason string) {
	r := reason
	s.degraded.CompareAndSwap(nil, &r)
}

// Seq returns the last assigned sequence number.
func (s *File) Seq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seq
}

// Load returns the latest snapshot and the live log, segments in index
// order. The first Load after OpenFile, with no Append or Compact in
// between, returns what the open decoded and reads nothing; any other
// reads the directory. A truncated or corrupt tail of the active segment —
// the signature of a crash mid-write — ends the replay at the last whole
// event instead of failing recovery; sealed segments are read strictly.
func (s *File) Load() (*Snapshot, []Event, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	img := s.opened
	s.opened = nil
	if img == nil {
		if err := s.w.Flush(); err != nil {
			return nil, nil, fmt.Errorf("store: flush: %w", err)
		}
		idxs := make([]uint64, 0, len(s.sealed)+1)
		for _, seg := range s.sealed {
			idxs = append(idxs, seg.index)
		}
		var err error
		if img, _, _, err = s.readLog(append(idxs, s.activeIndex)); err != nil {
			return nil, nil, err
		}
	}
	return img.snap, img.events, nil
}

// readLog decodes snapshot.json and the segments idxs in index order, the
// last one as the active segment. Beside the image it returns the
// snapshot's bytes and each segment as read, lastSeq the highest seq up to
// and including it.
func (s *File) readLog(idxs []uint64) (img *logImage, raw []byte, segs []sealedSegment, err error) {
	img = &logImage{}
	if img.snap, raw, err = s.readSnapshot(); err != nil {
		return nil, nil, nil, err
	}
	var maxSeq uint64
	for i, idx := range idxs {
		path := filepath.Join(s.dir, SegmentFileName(idx))
		evs, size, err := readWALFile(path, i == len(idxs)-1)
		if err != nil {
			return nil, nil, nil, err
		}
		for _, ev := range evs {
			maxSeq = max(maxSeq, ev.Seq)
		}
		img.events = append(img.events, evs...)
		segs = append(segs, sealedSegment{index: idx, path: path, bytes: size, events: uint64(len(evs)), lastSeq: maxSeq})
	}
	return img, raw, segs, nil
}

// readSnapshot returns snapshot.json decoded and as it is on disk, nils
// when there is none.
func (s *File) readSnapshot() (*Snapshot, []byte, error) {
	raw, err := s.ReadSnapshotRaw()
	if err != nil || raw == nil {
		return nil, nil, err
	}
	var snap Snapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		return nil, nil, fmt.Errorf("store: decode snapshot: %w", err)
	}
	return &snap, raw, nil
}

// readWALFile reads one JSONL segment whole and decodes it (see
// decodeSegment). A missing file is an empty segment.
func readWALFile(path string, tolerateTail bool) ([]Event, int64, error) {
	buf, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, 0, nil
	}
	if err != nil {
		return nil, 0, fmt.Errorf("store: read wal: %w", err)
	}
	events, size, err := decodeSegment(buf, tolerateTail)
	if err != nil {
		return nil, 0, fmt.Errorf("store: sealed segment %s corrupt: %w", filepath.Base(path), err)
	}
	return events, size, nil
}

// decodeSegment decodes the records of one segment, one per line, and
// returns them with the byte size of the lines they came from; blank lines
// count toward the size. With tolerateTail (the active segment) the first
// undecodable line ends the segment — a torn write from a crash — and the
// size is that of the whole prefix before it; without it (sealed segments)
// an undecodable line is corruption and errors out.
//
// A record is whole only when its trailing newline made it to disk: a
// final line that decodes but is unterminated (the crash fell exactly on
// the newline boundary) is still a torn tail — keeping it would let the
// next O_APPEND write concatenate onto it and turn two events into one
// undecodable line on the following recovery.
func decodeSegment(buf []byte, tolerateTail bool) ([]Event, int64, error) {
	lines := bytes.SplitAfter(buf, []byte{'\n'})
	tail := lines[len(lines)-1] // unterminated; empty when buf ends in a newline
	lines = lines[:len(lines)-1]
	events, errs := decodeLines(lines)
	kept := events[:0]
	var size int64
	for i, line := range lines {
		if errs[i] != nil {
			if tolerateTail {
				return kept, size, nil // torn tail: keep the whole prefix
			}
			return nil, 0, errs[i]
		}
		if !blank(line) {
			kept = append(kept, events[i])
		}
		size += int64(len(line))
	}
	if len(tail) > 0 && !tolerateTail {
		return nil, 0, errors.New("unterminated final record")
	}
	return kept, size, nil
}

// decodeLines unmarshals every non-blank line, lines[i] into events[i] or
// its error into errs[i], on as many workers as there are cores, each
// taking every workers-th line so that long and short records spread
// evenly. A line decodes alone, so no answer depends on the worker.
func decodeLines(lines [][]byte) (events []Event, errs []error) {
	events, errs = make([]Event, len(lines)), make([]error, len(lines))
	workers := min(runtime.GOMAXPROCS(0), len(lines))
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(lines); i += workers {
				if !blank(lines[i]) {
					errs[i] = json.Unmarshal(lines[i], &events[i])
				}
			}
		}()
	}
	wg.Wait()
	return events, errs
}

// blank reports whether line holds nothing but white space.
func blank(line []byte) bool { return len(bytes.TrimSpace(line)) == 0 }

// Compact atomically persists the snapshot, then deletes sealed segments
// whose events all sit at or below the snapshot's fence. Nothing is ever
// rewritten: the active segment and any sealed segment straddling the
// fence are left alone (replay is idempotent, so their already-folded
// events may safely reappear), and when no segment qualifies the log is
// not touched at all — the pre-check is one comparison per sealed segment.
//
// The snapshot is encoded, written, fsynced, renamed into place and the
// rename made durable before mu is taken, so appends proceed throughout;
// the lock covers only what changes the File — flushing the open batch,
// sealing, pruning, the counters. The directory fsync must come before the
// first unlink: an unlink that reached the disk ahead of the rename would
// leave, after a machine crash, the previous snapshot and a log missing the
// events only the new one holds. A snapshot is a valid image of the store
// whatever becomes of the log afterwards, so a store that closes or degrades
// while one is being written keeps it and prunes nothing.
func (s *File) Compact(snap *Snapshot) error {
	s.compactMu.Lock()
	defer s.compactMu.Unlock()
	s.mu.Lock()
	s.opened = nil
	err := s.refuseCompactLocked()
	s.mu.Unlock()
	if err != nil {
		return err
	}
	buf, err := json.Marshal(snap)
	if err != nil {
		return fmt.Errorf("store: encode snapshot: %w", err)
	}
	hash := HashHex(buf)
	if err := atomicWriteFile(s.snapPath(), buf, s.atStep); err != nil {
		return err
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	s.snapBytes, s.snapHash = int64(len(buf)), hash
	s.snapWritten += int64(len(buf))
	if err := s.refuseCompactLocked(); err != nil {
		return err
	}
	// Write out the open group-commit batch: its records are numbered at or
	// below s.seq but in no segment yet, and the seal below closes the
	// segment they belong to.
	s.commitPendingLocked()
	if err := s.w.Flush(); err != nil {
		return fmt.Errorf("store: flush: %w", err)
	}

	// A fence covering every event in the log (the snapshotter fences at
	// Seq, so: no append since) lets the log empty out completely — seal
	// the active segment so the prune below takes it too, and the next
	// recovery replays nothing. Still no rewrite: sealing is a rotation.
	if s.activeEvents > 0 && s.seq <= snap.Fence {
		if err := s.rotateLocked(); err != nil {
			return err
		}
		s.atStep("sealed")
	}

	keep := make([]sealedSegment, 0, len(s.sealed))
	removed := false
	for i, seg := range s.sealed {
		if seg.lastSeq > snap.Fence {
			keep = append(keep, seg)
			continue
		}
		if err := os.Remove(seg.path); err != nil {
			s.sealed = append(keep, s.sealed[i:]...)
			return fmt.Errorf("store: prune segment: %w", err)
		}
		s.walBytes -= seg.bytes
		s.walEvents -= seg.events
		s.pruned++
		removed = true
		s.atStep("pruned")
	}
	s.sealed = keep
	if removed {
		syncDir(s.dir)
	}
	s.snapshots++
	s.lastComp = time.Now()
	return nil
}

// refuseCompactLocked reports why the store takes no compaction. Callers
// hold s.mu.
func (s *File) refuseCompactLocked() error {
	if s.closed {
		return errors.New("store: compact closed store")
	}
	if r := s.degraded.Load(); r != nil {
		// Compaction deletes sealed segments; on a degraded WAL those
		// segments are the only trustworthy copy of the log, so the store
		// is strictly read-only.
		return fmt.Errorf("%w: %s", ErrDegraded, *r)
	}
	return nil
}

// atStep tells the test seam, if one is installed, that Compact got to a
// step boundary.
func (s *File) atStep(name string) {
	if s.step != nil {
		s.step(name)
	}
}

// tempPattern names the temporary files AtomicWriteFile creates.
const tempPattern = ".store-*"

// AtomicWriteFile writes data to path via a temp file + fsync + rename,
// then fsyncs the directory: when it returns, the new content is what a
// machine crash leaves at path. Exported for replica ingest, which installs
// shipped snapshots with the crash semantics compaction gives snapshot.json.
func AtomicWriteFile(path string, data []byte) error {
	return atomicWriteFile(path, data, func(string) {})
}

// atomicWriteFile is AtomicWriteFile telling step each of its step
// boundaries.
func atomicWriteFile(path string, data []byte, step func(string)) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, tempPattern)
	if err != nil {
		return fmt.Errorf("store: temp file: %w", err)
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("store: write temp: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("store: sync temp: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("store: close temp: %w", err)
	}
	step("temp-written")
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("store: rename: %w", err)
	}
	step("renamed")
	syncDir(dir)
	step("dir-synced")
	return nil
}

// SweepTempFiles removes what a kill -9 between AtomicWriteFile's create
// and its rename leaves in dir: nothing refers to such a file, and nothing
// else would ever delete it. For a directory no process is writing into.
func SweepTempFiles(dir string) error {
	stale, err := filepath.Glob(filepath.Join(dir, tempPattern))
	if err != nil {
		return fmt.Errorf("store: list temp files: %w", err)
	}
	for _, path := range stale {
		if err := os.Remove(path); err != nil && !errors.Is(err, os.ErrNotExist) {
			return fmt.Errorf("store: sweep temp file: %w", err)
		}
	}
	return nil
}

// syncDir fsyncs a directory so renames, new segments, and deletions are
// durable. Best-effort: some filesystems reject directory fsync.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	_ = d.Sync()
	_ = d.Close()
}

// Metrics reports log size, segmentation, and compaction counters.
func (s *File) Metrics() Metrics {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := Metrics{
		WALBytes:             s.walBytes,
		WALEvents:            s.walEvents,
		Seq:                  s.seq,
		Segments:             1 + len(s.sealed),
		PrunedSegments:       s.pruned,
		Batches:              s.batches,
		BatchedEvents:        s.batchedEvents,
		Snapshots:            s.snapshots,
		LastCompaction:       s.lastComp,
		SnapshotBytes:        s.snapBytes,
		AppendedBytes:        s.appended,
		SnapshotBytesWritten: s.snapWritten,
	}
	if r := s.degraded.Load(); r != nil {
		m.Degraded, m.DegradedReason = true, *r
	}
	return m
}

// Close waits out a compaction in flight, flushes any open batch, stops the
// committer, fsyncs, and closes the active segment.
func (s *File) Close() error {
	s.compactMu.Lock()
	defer s.compactMu.Unlock()
	s.mu.Lock()
	s.opened = nil
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.commitPendingLocked()
	s.mu.Unlock()
	if s.gc != nil {
		s.gc.stop()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.w.Flush(); err != nil {
		s.f.Close()
		return fmt.Errorf("store: flush: %w", err)
	}
	if err := s.f.Sync(); err != nil {
		s.f.Close()
		return fmt.Errorf("store: sync: %w", err)
	}
	return s.f.Close()
}
