package main

import (
	"bytes"
	"context"
	"errors"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"relm/internal/replica"
)

// TestParsePeers: -replicate-to takes comma-separated name=url pairs,
// blanks around and between them ignored, and refuses a pair missing its
// name, its URL or its '=', and a list that names no peer.
func TestParsePeers(t *testing.T) {
	for _, tt := range []struct {
		in   string
		want []replica.Peer
	}{
		{"b=http://127.0.0.1:8081", []replica.Peer{{Name: "b", URL: "http://127.0.0.1:8081"}}},
		{" b=http://h:1 , c=http://h:2,", []replica.Peer{{Name: "b", URL: "http://h:1"}, {Name: "c", URL: "http://h:2"}}},
		{"b=http://h:1?x=y", []replica.Peer{{Name: "b", URL: "http://h:1?x=y"}}},
	} {
		got, err := parsePeers(tt.in)
		if err != nil || !reflect.DeepEqual(got, tt.want) {
			t.Errorf("parsePeers(%q) = %v, %v, want %v", tt.in, got, err, tt.want)
		}
	}
	for _, in := range []string{"", "  ", ",", " , ", "b", "b=", "=http://h:1", "b=http://h:1,c"} {
		if got, err := parsePeers(in); err == nil {
			t.Errorf("parsePeers(%q) = %v, want an error", in, got)
		}
	}
}

// TestReplicationNeedsDataDirAndNodeID: the built command exits non-zero
// with its message, before it listens, when -replicate-to comes without
// -data-dir or without -node-id: there is no log to ship, or no name to
// ship it under.
func TestReplicationNeedsDataDirAndNodeID(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "relm-serve")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	const msg = "-replicate-to requires -data-dir and -node-id"
	peers := []string{"-addr", "127.0.0.1:0", "-replicate-to", "b=http://127.0.0.1:1"}
	for _, extra := range [][]string{
		nil,
		{"-data-dir", filepath.Join(dir, "data")},
		{"-node-id", "a"},
	} {
		args := append(append([]string(nil), peers...), extra...)
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		var stderr bytes.Buffer
		cmd := exec.CommandContext(ctx, bin, args...)
		cmd.Stderr = &stderr
		err := cmd.Run()
		timedOut := ctx.Err() != nil
		cancel()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() == 0 || timedOut {
			t.Errorf("relm-serve %s: %v, want a non-zero exit", strings.Join(args, " "), err)
		}
		if !strings.Contains(stderr.String(), msg) {
			t.Errorf("relm-serve %s said %q, want %q", strings.Join(args, " "), stderr.String(), msg)
		}
	}
}
