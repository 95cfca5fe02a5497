package store_test

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"relm/internal/conf"
	"relm/internal/service"
	"relm/internal/store"
)

// TestCompactCrashPoints kills the process at every step boundary of a
// compaction — the directory is copied as a crash there would leave it:
// temp file written, renamed, directory synced, active segment sealed,
// after each unlink — and recovers each copy the way a node starts
// (OpenFile + service.Open). Every one must come back with the same
// sessions, the same histories and the same next suggestions as the
// process that crashed held: the exhaustive walk over failure sites, not a
// sample of them.
func TestCompactCrashPoints(t *testing.T) {
	dir, crashes := t.TempDir(), t.TempDir()
	fs, err := store.OpenFile(dir, store.FileOptions{SegmentBytes: 2 << 10})
	if err != nil {
		t.Fatal(err)
	}
	m, err := service.Open(service.Options{Workers: 1, Store: fs, SnapshotEvery: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	// Three sessions left open with a suggestion outstanding, one closed.
	type held struct {
		history []service.HistoryEntry
		next    conf.Config
	}
	want := make(map[string]held)
	for i, spec := range []service.Spec{
		{Backend: "bo", Workload: "K-means", Seed: 3},
		{Backend: "gbo", Workload: "SVM", Seed: 4},
		{Backend: "ddpg", Workload: "PageRank", Seed: 5},
		{Backend: "bo", Workload: "WordCount", Seed: 6},
	} {
		st, err := m.Create(spec)
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 4+i; step++ {
			cfg, _, err := m.Suggest(st.ID)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := m.Observe(st.ID, service.Observation{Config: cfg, RuntimeSec: 300 - float64(10*step+i)}); err != nil {
				t.Fatal(err)
			}
		}
		if i == 3 {
			if err := m.CloseSession(st.ID); err != nil {
				t.Fatal(err)
			}
			continue
		}
		next, _, err := m.Suggest(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		hist, err := m.History(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		want[st.ID] = held{hist, next}
	}

	// The compaction must have an active segment to seal: if the last event
	// happened to rotate it, journal one more (a repeated suggest is served
	// from the tuner's cache and changes nothing else).
	if segs := fs.Segments(); segs[len(segs)-1].Bytes == 0 {
		for id := range want {
			if _, _, err := m.Suggest(id); err != nil {
				t.Fatal(err)
			}
			break
		}
	}

	var points []string
	crash := func(step string) {
		name := fmt.Sprintf("%02d-%s", len(points), step)
		points = append(points, name)
		copyDir(t, dir, filepath.Join(crashes, name))
	}
	crash("before")
	fs.SetCompactStep(crash)
	if err := m.Snapshot(); err != nil {
		t.Fatal(err)
	}
	fs.SetCompactStep(nil)
	crash("after")

	seen := make(map[string]int)
	for _, p := range points {
		seen[p[3:]]++
	}
	if seen["temp-written"] != 1 || seen["renamed"] != 1 || seen["dir-synced"] != 1 || seen["sealed"] != 1 || seen["pruned"] < 3 {
		t.Fatalf("crash points %v: want every step of a compaction that seals and prunes several segments", points)
	}

	for _, p := range points {
		t.Run(p, func(t *testing.T) {
			fs2, err := store.OpenFile(filepath.Join(crashes, p))
			if err != nil {
				t.Fatal(err)
			}
			m2, err := service.Open(service.Options{Workers: 1, Store: fs2, SnapshotEvery: 1 << 30})
			if err != nil {
				t.Fatal(err)
			}
			defer m2.Close()
			var got, ids []string
			for _, st := range m2.List() {
				got = append(got, st.ID)
			}
			for id := range want {
				ids = append(ids, id)
			}
			sort.Strings(got)
			sort.Strings(ids)
			if !reflect.DeepEqual(got, ids) {
				t.Fatalf("recovered sessions %v, want %v", got, ids)
			}
			for id, w := range want {
				hist, err := m2.History(id)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(hist, w.history) {
					t.Errorf("%s: history differs:\n got %+v\nwant %+v", id, hist, w.history)
				}
				if next, _, err := m2.Suggest(id); err != nil || next != w.next {
					t.Errorf("%s: next suggestion %+v (err %v), want %+v", id, next, err, w.next)
				}
			}
		})
	}
}

// copyDir copies the regular files of src into a new directory dst.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	if err := os.Mkdir(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		buf, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), buf, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
