package obs

import (
	"context"
	"fmt"
	"log/slog"
)

// Logf adapts a slog.Logger to the `func(format, ...any)` hooks of the
// service, replica, and router packages; lines land at the given level.
func Logf(l *slog.Logger, level slog.Level) func(format string, args ...any) {
	return func(format string, args ...any) {
		if l.Enabled(context.Background(), level) {
			l.Log(context.Background(), level, fmt.Sprintf(format, args...))
		}
	}
}
