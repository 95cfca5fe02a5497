// Package wire is the two halves of an exchange between two relm
// processes, each written once: Do sends every internal request (router →
// backend, health probe, primary → follower, load generator → front door)
// and WriteJSON renders every JSON reply. It imports only the standard
// library, so either side of any hop can use it; what a caller wraps around
// Do — a breaker, a failpoint, a span, an error ledger — stays the caller's.
package wire

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
)

// TraceHeader carries the request trace ID across hops: router → backend
// proxying and primary → follower replica shipping.
const TraceHeader = "X-Relm-Trace"

// Do performs one exchange and returns the whole answer. ctx bounds it —
// deadline and cancellation both; client should carry no Timeout of its
// own. The request has a Content-Type only when it has a body (nil is no
// body) and a TraceHeader only when traceID is not empty. At most limit
// bytes of the answer are accepted: a longer one is an error, never a
// truncated body handed on as complete. When reading the answer fails,
// status and header are still what the peer sent.
func Do(ctx context.Context, client *http.Client, method, url, traceID, contentType string, body []byte, limit int64) (status int, header http.Header, answer []byte, err error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return 0, nil, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", contentType)
	}
	if traceID != "" {
		req.Header.Set(TraceHeader, traceID)
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	answer, err = io.ReadAll(io.LimitReader(resp.Body, limit+1))
	if err == nil && int64(len(answer)) > limit {
		err = fmt.Errorf("wire: %s %s answered more than %d bytes", method, url, limit)
	}
	return resp.StatusCode, resp.Header, answer, err
}

// WriteJSON replies with v as one JSON line. It marshals before writing the
// header so an encoding failure (e.g. a NaN float) surfaces as a 500
// instead of a silent empty 200.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	buf, err := json.Marshal(v)
	if err != nil {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusInternalServerError)
		fmt.Fprintf(w, `{"error":%q}`, "encode response: "+err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(buf)
	_, _ = w.Write([]byte("\n"))
}
