// Package wire is the two halves of an exchange between two relm processes,
// each written once: Client.Do sends every internal request (router →
// backend, health probe, primary → follower, load generator → front door)
// and WriteJSON renders every JSON reply. It imports only the standard
// library, so either side of any hop can use it; what a caller wraps around
// Do — a suspect booking, a failpoint, a span, an error ledger — stays the
// caller's.
package wire

import (
	"encoding/json"
	"fmt"
	"net/http"
)

// TraceHeader carries the request trace ID across hops.
const TraceHeader = "X-Relm-Trace"

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
