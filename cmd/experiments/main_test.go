package main

import (
	"bytes"
	"errors"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"relm/internal/experiments"
)

// TestRefusesNegativeReps: the built command exits 2 with a message, and
// prints no result, on a negative -reps, where it once ran the default
// repetitions.
func TestRefusesNegativeReps(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "experiments")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, args := range [][]string{
		{"-id", "figure17", "-reps", "-2"},
		{"-all", "-reps", "-1"},
	} {
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(bin, args...)
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		var exit *exec.ExitError
		if err := cmd.Run(); !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("experiments %s: %v, want exit status 2", strings.Join(args, " "), err)
		}
		if stdout.Len() > 0 || !strings.Contains(stderr.String(), "-reps") {
			t.Errorf("experiments %s printed %q and said %q, want nothing and a message naming -reps", strings.Join(args, " "), stdout.String(), stderr.String())
		}
	}
}

// TestListNamesEveryID: -list prints one line per registered experiment,
// its ID first, in IDs' order.
func TestListNamesEveryID(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-list"}, &out); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, line := range strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n") {
		got = append(got, strings.Fields(line)[0])
	}
	if want := experiments.IDs(); len(want) == 0 || !reflect.DeepEqual(got, want) {
		t.Fatalf("-list names %v, want %v", got, want)
	}
}
