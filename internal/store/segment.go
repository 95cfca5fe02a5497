package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// The write-ahead log is a sequence of numbered segment files
// (wal-000001.jsonl, wal-000002.jsonl, …). The highest-numbered segment is
// active: appends go to it, and a torn tail there (a crash mid-write) is
// truncated on recovery. Every lower-numbered segment is sealed — immutable
// since its rotation — so compaction never rewrites data: it simply deletes
// sealed segments whose events are all folded into the snapshot. Recovery
// streams segments in index order; an undecodable line in a sealed segment
// is corruption (sealed files are fsynced at rotation), not a torn tail,
// and fails the open.

const (
	segmentPrefix = "wal-"
	segmentSuffix = ".jsonl"
	// legacyWALFile is the pre-segmentation single-file log. No release
	// since has written it; OpenFile refuses a directory that holds one.
	legacyWALFile = "wal.jsonl"
)

// SegmentFileName renders the file name of WAL segment index i
// (wal-000001.jsonl, …). Exported for replica directories, which are
// ordinary store directories maintained by ingest rather than Append.
func SegmentFileName(i uint64) string {
	return fmt.Sprintf("%s%06d%s", segmentPrefix, i, segmentSuffix)
}

// ParseSegmentFileName extracts the segment index from a WAL segment file
// name, reporting whether the name is one.
func ParseSegmentFileName(name string) (uint64, bool) {
	if len(name) <= len(segmentPrefix)+len(segmentSuffix) {
		return 0, false
	}
	if name[:len(segmentPrefix)] != segmentPrefix || name[len(name)-len(segmentSuffix):] != segmentSuffix {
		return 0, false
	}
	digits := name[len(segmentPrefix) : len(name)-len(segmentSuffix)]
	var idx uint64
	for _, c := range digits {
		if c < '0' || c > '9' {
			return 0, false
		}
		idx = idx*10 + uint64(c-'0')
	}
	if idx == 0 {
		return 0, false
	}
	return idx, true
}

// sealedSegment is the in-memory record of one immutable log segment.
type sealedSegment struct {
	index   uint64
	path    string
	bytes   int64
	events  uint64
	lastSeq uint64 // highest sequence number the segment holds (or inherits)
}

// listSegments returns the directory's WAL segments sorted by index.
func listSegments(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: read dir: %w", err)
	}
	var idxs []uint64
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if idx, ok := ParseSegmentFileName(e.Name()); ok {
			idxs = append(idxs, idx)
		}
	}
	sort.Slice(idxs, func(i, j int) bool { return idxs[i] < idxs[j] })
	return idxs, nil
}

// refuseLegacyWAL fails the open of a directory still holding the
// pre-segmentation wal.jsonl: listSegments does not see that file, so
// opening would present an apparently empty log over real history.
func refuseLegacyWAL(dir string) error {
	legacy := filepath.Join(dir, legacyWALFile)
	if _, err := os.Stat(legacy); errors.Is(err, os.ErrNotExist) {
		return nil
	} else if err != nil {
		return fmt.Errorf("store: stat legacy wal: %w", err)
	}
	return fmt.Errorf("store: %s is a pre-segmentation single-file log, no longer opened in place; rename it to %s to keep its history (or remove it) and reopen", legacy, SegmentFileName(1))
}
