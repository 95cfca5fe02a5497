package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestRefusesBadInvocations: the built command exits 2 with a message on
// stderr, prints nothing on stdout, sends no load and writes no report
// when -scenario or -target is missing, when a positional argument
// follows the flags (once silently ignored), and when the scenario file
// cannot be read or is not a scenario. The target is a closed local port:
// a run that got as far as sending would fail with exit 1 instead.
func TestRefusesBadInvocations(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "relm-loadgen")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	notJSON := filepath.Join(dir, "scenario.txt")
	if err := os.WriteFile(notJSON, []byte("sessions: 3\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	smoke := filepath.Join("..", "..", "scripts", "scenarios", "smoke.json")
	target := "http://127.0.0.1:1"
	report := filepath.Join(dir, "LOAD.json")
	for _, c := range []struct {
		name, says string
		args       []string
	}{
		{"no-flags", "-scenario and -target", nil},
		{"no-target", "-scenario and -target", []string{"-scenario", smoke}},
		{"no-scenario", "-scenario and -target", []string{"-target", target}},
		{"positional", `"extra"`, []string{"-scenario", smoke, "-target", target, "extra"}},
		{"missing-file", "no-such.json", []string{"-scenario", filepath.Join(dir, "no-such.json"), "-target", target}},
		{"not-a-scenario", "scenario.txt", []string{"-scenario", notJSON, "-target", target}},
	} {
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(bin, append([]string{"-out", report, "-quiet"}, c.args...)...)
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		var exit *exec.ExitError
		if err := cmd.Run(); !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("%s: %v, want exit status 2", c.name, err)
		}
		if stdout.Len() > 0 || !strings.Contains(stderr.String(), c.says) {
			t.Errorf("%s: printed %q and said %q, want nothing and a message naming %s", c.name, stdout.String(), stderr.String(), c.says)
		}
		if _, err := os.Stat(report); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("%s: a report was written (%v)", c.name, err)
		}
	}
}
