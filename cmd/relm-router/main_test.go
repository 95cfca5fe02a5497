package main

import (
	"bytes"
	"context"
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestParseBackends: the built command exits non-zero, before it listens,
// naming its flag, when -backends holds a pair missing its name, its URL or
// its '=', or names no backend. The pairs it accepts are
// replica.TestParsePeers' table: -backends parses through replica.ParsePeers.
func TestParseBackends(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "relm-router")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	const msg = "parse -backends: "
	for _, in := range []string{"", "  ", ",", " , ", "a", "a=", "=http://h:1", "a=http://h:1,b"} {
		args := []string{"-addr", "127.0.0.1:0", "-backends", in}
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		var stderr bytes.Buffer
		cmd := exec.CommandContext(ctx, bin, args...)
		cmd.Stderr = &stderr
		err := cmd.Run()
		timedOut := ctx.Err() != nil
		cancel()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() == 0 || timedOut {
			t.Errorf("relm-router -backends %q: %v, want a non-zero exit", in, err)
		}
		if !strings.Contains(stderr.String(), msg) {
			t.Errorf("relm-router -backends %q said %q, want %q", in, stderr.String(), msg)
		}
	}
}
