package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"relm/internal/conf"
	"relm/internal/profile"
	"relm/internal/sim"
	"relm/internal/sim/cluster"
	"relm/internal/sim/workload"
)

// gcLog is container ci's GC event log as EachGC expands it.
func gcLog(p *profile.Profile, ci int) []profile.GCEvent {
	var out []profile.GCEvent
	p.EachGC(ci, func(g profile.GCEvent) { out = append(out, g) })
	return out
}

// TestProfileExportRoundTrips: what -profile writes decodes to a profile
// with the same per-container GC logs, the same task log and the same
// Table 6 statistics as the one in memory.
func TestProfileExportRoundTrips(t *testing.T) {
	for _, wl := range []workload.Spec{workload.PageRank(), workload.SortByKey()} {
		_, prof := sim.Run(cluster.A(), wl, conf.Default(), 1)
		if len(prof.Residency) == 0 {
			t.Fatalf("%s: the run recorded no full GC; the test needs one", wl.Name)
		}
		path := filepath.Join(t.TempDir(), "profile.json")
		if err := writeProfileJSON(path, prof); err != nil {
			t.Fatal(err)
		}
		buf, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var got profile.Profile
		if err := json.Unmarshal(buf, &got); err != nil {
			t.Fatal(err)
		}
		if len(got.Containers) != len(prof.Containers) {
			t.Fatalf("%s: %d containers decoded, want %d", wl.Name, len(got.Containers), len(prof.Containers))
		}
		for ci := range prof.Containers {
			if g, w := gcLog(&got, ci), gcLog(prof, ci); !reflect.DeepEqual(g, w) {
				t.Fatalf("%s container %d: decoded GC log differs:\n got %v\nwant %v", wl.Name, ci, g, w)
			}
		}
		var gotTasks, wantTasks []profile.TaskEvent
		got.EachTask(func(e profile.TaskEvent) { gotTasks = append(gotTasks, e) })
		prof.EachTask(func(e profile.TaskEvent) { wantTasks = append(wantTasks, e) })
		if !reflect.DeepEqual(gotTasks, wantTasks) {
			t.Fatalf("%s: decoded task log differs", wl.Name)
		}
		if g, w := profile.Generate(&got), profile.Generate(prof); g != w {
			t.Fatalf("%s: decoded profile generates\n%+v\nwant\n%+v", wl.Name, g, w)
		}
	}
}
