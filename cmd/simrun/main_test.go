package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
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

// TestProfileExportRoundTrips: what -profile writes for a run of the
// default configuration decodes to a profile with the same per-container GC
// logs, the same task log and the same Table 6 statistics as the one in
// memory.
func TestProfileExportRoundTrips(t *testing.T) {
	for _, wl := range []workload.Spec{workload.PageRank(), workload.SortByKey()} {
		_, prof := sim.Run(cluster.A(), wl, conf.Default(), 1)
		if len(prof.Residency) == 0 {
			t.Fatalf("%s: the run recorded no full GC; the test needs one", wl.Name)
		}
		path := filepath.Join(t.TempDir(), "profile.json")
		if err := run([]string{"-workload", wl.Name, "-profile", path}, io.Discard); err != nil {
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

// TestModes: a plain run, -whatif with and without runs, and -tune with and
// without its trace print what testdata/modes.txt holds under each
// "$ simrun <flags>" line. The plain run, the models' answers, the
// candidates and the default run there are what simrun, whatif and
// relm-tune printed when they were three commands.
func TestModes(t *testing.T) {
	buf, err := os.ReadFile(filepath.Join("testdata", "modes.txt"))
	if err != nil {
		t.Fatal(err)
	}
	cases := strings.Split(string(buf), "$ simrun ")[1:]
	if len(cases) != 5 {
		t.Fatalf("testdata/modes.txt holds %d cases, want 5", len(cases))
	}
	for _, c := range cases {
		args, want, _ := strings.Cut(c, "\n")
		var got strings.Builder
		if err := run(strings.Fields(args), &got); err != nil {
			t.Fatalf("simrun %s: %v", args, err)
		}
		if got.String() != want {
			t.Errorf("simrun %s printed\n%s\nwant\n%s", args, got.String(), want)
		}
	}
}

// TestRefusesInvalidConfigurations: the built command exits 2 with a
// message, and prints no run, on a configuration conf.Validate refuses, on a
// negative -reps and on a -profile that no run would write.
func TestRefusesInvalidConfigurations(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "simrun")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	prof := filepath.Join(dir, "x.json")
	for _, args := range [][]string{
		{"-p", "0"},
		{"-cache", "0.9", "-shuffle", "0.5"},
		{"-reps", "-2", "-profile", prof},
		{"-reps", "0", "-profile", prof},
	} {
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(bin, args...)
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		var exit *exec.ExitError
		if err := cmd.Run(); !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("simrun %s: %v, want exit status 2", strings.Join(args, " "), err)
		}
		if stdout.Len() > 0 || stderr.Len() == 0 {
			t.Errorf("simrun %s printed %q and said %q, want nothing and a message", strings.Join(args, " "), stdout.String(), stderr.String())
		}
	}
	if _, err := os.Stat(prof); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("a refused run left %s: %v", prof, err)
	}
}
