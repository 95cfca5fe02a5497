package store

import (
	"sync"
	"time"
)

// Group commit: when the log fsyncs each append (FileOptions.SyncEachAppend),
// a per-record fsync caps throughput at one disk flush per observation. The
// File store instead runs a background committer goroutine that coalesces
// concurrent Append calls into one write+fsync batch: an appender encodes
// its event, joins the open batch, and blocks until the committer flushes
// it. By default a batch is flushed as soon as the committer is free, so
// appends arriving during the previous flush coalesce naturally — batch
// size tracks arrival rate × fsync latency with no added wait. An optional
// CommitInterval (the latency cap, ~1–2ms) holds each batch open to build
// bigger batches; either way a batch of commitBatchCap records is flushed
// immediately. Under heavy observe traffic many records share one fsync
// while a lone appender pays at most interval + one flush.

// commitBatchCap is the group-commit size cap: a batch this large is
// flushed without waiting out the interval.
const commitBatchCap = 64

// commitBatch is one group of appends flushed by a single write+fsync.
type commitBatch struct {
	buf  []byte        // concatenated marshaled records, newline-terminated
	n    int           // records in the batch
	full chan struct{} // closed when n reaches the size cap
	done chan struct{} // closed after the batch is on disk (or failed)
	err  error         // commit outcome, valid after done
}

// committer drives the group-commit loop for a File store.
type committer struct {
	s        *File
	interval time.Duration // coalescing window; <= 0 commits on first wake
	kick     chan struct{} // buffered(1): signaled when a new batch opens
	quit     chan struct{}
	wg       sync.WaitGroup
}

func newCommitter(s *File, interval time.Duration) *committer {
	c := &committer{
		s:        s,
		interval: interval,
		kick:     make(chan struct{}, 1),
		quit:     make(chan struct{}),
	}
	c.wg.Add(1)
	go c.loop()
	return c
}

// join adds one marshaled record to the open batch (opening one if needed)
// and returns the batch to wait on. Callers hold s.mu.
func (c *committer) join(s *File, rec []byte) *commitBatch {
	b := s.batch
	if b == nil {
		b = &commitBatch{full: make(chan struct{}), done: make(chan struct{})}
		s.batch = b
		select {
		case c.kick <- struct{}{}:
		default: // the committer is already awake
		}
	}
	b.buf = append(b.buf, rec...)
	b.n++
	if b.n == commitBatchCap {
		close(b.full) // size cap hit: commit without waiting out the window
	}
	return b
}

// loop waits for a batch to open, lets it coalesce up to the latency cap,
// then flushes it with a single write+fsync.
func (c *committer) loop() {
	defer c.wg.Done()
	for {
		select {
		case <-c.quit:
			return // Close flushes any open batch before stopping the loop
		case <-c.kick:
		}
		c.s.mu.Lock()
		b := c.s.batch
		c.s.mu.Unlock()
		if b != nil && c.interval > 0 {
			timer := time.NewTimer(c.interval)
			select {
			case <-timer.C:
			case <-b.full:
				timer.Stop()
			case <-c.quit:
				timer.Stop() // fall through: commit what is pending, then exit
			}
		}
		c.s.mu.Lock()
		c.s.commitPendingLocked()
		c.s.mu.Unlock()
		select {
		case <-c.quit:
			return
		default:
		}
	}
}

// stop terminates the loop. The caller must already have flushed or failed
// any open batch (no appender may be left waiting on a dead committer).
func (c *committer) stop() {
	close(c.quit)
	c.wg.Wait()
}
