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

// TestParsePeers: the built command exits non-zero, before it listens,
// naming its flag, when -replicate-to holds a pair missing its name, its
// URL or its '=', or names no peer. The pairs it accepts are
// replica.TestParsePeers' table: -replicate-to parses through
// replica.ParsePeers.
func TestParsePeers(t *testing.T) {
	dir := t.TempDir()
	bin := build(t, dir)
	const msg = "parse -replicate-to: "
	for _, in := range []string{"  ", ",", " , ", "b", "b=", "=http://h:1", "b=http://h:1,c"} {
		refuses(t, bin, msg, "-addr", "127.0.0.1:0", "-data-dir", filepath.Join(dir, "data"), "-node-id", "a", "-replicate-to", in)
	}
}

// TestReplicationNeedsDataDirAndNodeID: the built command exits non-zero
// with its message, before it listens, when -replicate-to comes without
// -data-dir or without -node-id: there is no log to ship, or no name to
// ship it under.
func TestReplicationNeedsDataDirAndNodeID(t *testing.T) {
	dir := t.TempDir()
	bin := build(t, dir)
	const msg = "-replicate-to requires -data-dir and -node-id"
	peers := []string{"-addr", "127.0.0.1:0", "-replicate-to", "b=http://127.0.0.1:1"}
	for _, extra := range [][]string{
		nil,
		{"-data-dir", filepath.Join(dir, "data")},
		{"-node-id", "a"},
	} {
		refuses(t, bin, msg, append(append([]string(nil), peers...), extra...)...)
	}
}

// build builds relm-serve into dir and returns the binary's path.
func build(t *testing.T, dir string) string {
	t.Helper()
	bin := filepath.Join(dir, "relm-serve")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// refuses runs bin with args and wants a non-zero exit, within a minute,
// whose stderr says msg.
func refuses(t *testing.T, bin, msg string, args ...string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	var stderr bytes.Buffer
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() == 0 || ctx.Err() != nil {
		t.Errorf("relm-serve %q: %v, want a non-zero exit", args, err)
	}
	if !strings.Contains(stderr.String(), msg) {
		t.Errorf("relm-serve %q said %q, want %q", args, stderr.String(), msg)
	}
}
