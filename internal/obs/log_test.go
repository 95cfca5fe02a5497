package obs

import (
	"bytes"
	"log/slog"
	"strings"
	"testing"
)

func TestLoggerLogfAdapter(t *testing.T) {
	var buf bytes.Buffer
	l := slog.New(slog.NewTextHandler(&buf, &slog.HandlerOptions{Level: slog.LevelInfo})).With("node", "n2")
	Logf(l, slog.LevelInfo)("shipped %d segments to %s", 3, "b")
	Logf(l, slog.LevelDebug)("suppressed")
	out := buf.String()
	if !strings.Contains(out, `level=INFO msg="shipped 3 segments to b" node=n2`) {
		t.Fatalf("Logf line missing: %q", out)
	}
	if strings.Contains(out, "suppressed") {
		t.Fatalf("debug Logf leaked at info level: %q", out)
	}
}
