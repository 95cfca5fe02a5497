package store

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// This file is the store's export surface for log shipping (see
// internal/replica): replication reads the WAL exactly as it sits on disk
// — sealed segments whole, the active segment as a growing prefix — so a
// follower's replica directory is byte-for-byte a valid store directory
// that OpenFile can recover with the same code path as a local restart.

// SegmentInfo describes one live WAL segment for export. Bytes counts only
// whole, committed records: the shipper may read [0, Bytes) of the segment
// and never observe a torn tail.
type SegmentInfo struct {
	Index  uint64 `json:"index"`
	Bytes  int64  `json:"bytes"`
	Sealed bool   `json:"sealed"`
}

// Segments returns the live log's segments in index order, the active
// segment last. The sizes are consistent with each other (taken under the
// store lock) and every reported byte is flushed to the OS.
func (s *File) Segments() []SegmentInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]SegmentInfo, 0, len(s.sealed)+1)
	for _, seg := range s.sealed {
		out = append(out, SegmentInfo{Index: seg.index, Bytes: seg.bytes, Sealed: true})
	}
	return append(out, SegmentInfo{Index: s.activeIndex, Bytes: s.activeBytes})
}

// ReadSegmentAt reads up to len(p) bytes of segment index starting at byte
// offset off, returning the count read. Segment files are append-only, so
// a read bounded by a size previously returned from Segments is stable
// even while appends and rotations continue; a segment deleted by a
// concurrent compaction surfaces as os.ErrNotExist and the caller simply
// re-lists. Reading at or past the current end returns (0, io.EOF).
func (s *File) ReadSegmentAt(index uint64, off int64, p []byte) (int, error) {
	f, err := os.Open(filepath.Join(s.dir, SegmentFileName(index)))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	n, err := f.ReadAt(p, off)
	if errors.Is(err, io.EOF) && n > 0 {
		err = nil
	}
	return n, err
}

// ReadSnapshotRaw returns the raw bytes of the latest compacted snapshot,
// or (nil, nil) when none has been taken. Compaction replaces the snapshot
// atomically (write + rename), so the bytes are always one complete
// snapshot, never a torn mix.
func (s *File) ReadSnapshotRaw() ([]byte, error) {
	buf, err := os.ReadFile(s.snapPath())
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("store: read snapshot: %w", err)
	}
	return buf, nil
}

// SnapshotHash names the snapshot ReadSnapshotRaw would return: the HashHex
// of its bytes, "" when none has been taken. It is computed where the bytes
// are (by Compact, and by OpenFile for a file already there), so asking
// costs no read.
func (s *File) SnapshotHash() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.snapHash
}

// HashHex is the content hash a snapshot goes by between a primary and its
// followers: FNV-1a of the raw bytes, in hex.
func HashHex(data []byte) string {
	const prime = 1099511628211
	x := uint64(14695981039346656037)
	for _, c := range data {
		x ^= uint64(c)
		x *= prime
	}
	return fmt.Sprintf("%016x", x)
}

// Dir returns the directory the store is rooted at.
func (s *File) Dir() string { return s.dir }

// ListSegmentFiles returns the WAL segments present in dir (any store or
// replica directory) in index order with their current on-disk sizes. A
// missing directory is an empty log, not an error.
func ListSegmentFiles(dir string) ([]SegmentInfo, error) {
	idxs, err := listSegments(dir)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	out := make([]SegmentInfo, 0, len(idxs))
	for i, idx := range idxs {
		st, err := os.Stat(filepath.Join(dir, SegmentFileName(idx)))
		if err != nil {
			if errors.Is(err, os.ErrNotExist) {
				continue // pruned between list and stat
			}
			return nil, fmt.Errorf("store: stat segment: %w", err)
		}
		out = append(out, SegmentInfo{Index: idx, Bytes: st.Size(), Sealed: i < len(idxs)-1})
	}
	return out, nil
}
