package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"relm/internal/wire"
)

// TraceHeader carries the request trace ID across hops (see wire.TraceHeader,
// which wire.Do sets).
const TraceHeader = wire.TraceHeader

// Span is one timed step inside a trace: a router hop, a service handler
// stage, a replica ingest, etc.
type Span struct {
	Name    string  `json:"name"`
	StartUs float64 `json:"start_us"` // offset from trace start
	DurUs   float64 `json:"dur_us"`
}

// Trace accumulates the spans of one request on one node. Spans are
// appended from the handler goroutine; the ring reader copies under the
// same mutex.
type Trace struct {
	mu     sync.Mutex
	id     string
	node   string
	method string
	path   string
	start  time.Time
	spans  []Span
}

// maxSpans bounds a runaway trace; beyond this, spans are dropped.
const maxSpans = 64

// ID returns the trace's identifier ("" on nil).
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// AddSpan records a span named name that began at start and ends now.
// Nil-safe, so instrumented handlers can call it unconditionally.
func (t *Trace) AddSpan(name string, start time.Time) {
	if t == nil {
		return
	}
	now := time.Now()
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, Span{
			Name:    name,
			StartUs: float64(start.Sub(t.start)) / 1e3,
			DurUs:   float64(now.Sub(start)) / 1e3,
		})
	}
	t.mu.Unlock()
}

// TraceRecord is the finished, serializable form of a trace.
type TraceRecord struct {
	ID      string  `json:"id"`
	Node    string  `json:"node"`
	Method  string  `json:"method"`
	Path    string  `json:"path"`
	Start   string  `json:"start"`
	TotalUs float64 `json:"total_us"`
	Spans   []Span  `json:"spans"`
}

func (t *Trace) record(end time.Time) TraceRecord {
	t.mu.Lock()
	spans := make([]Span, len(t.spans))
	copy(spans, t.spans)
	t.mu.Unlock()
	return TraceRecord{
		ID:      t.id,
		Node:    t.node,
		Method:  t.method,
		Path:    t.path,
		Start:   t.start.UTC().Format(time.RFC3339Nano),
		TotalUs: float64(end.Sub(t.start)) / 1e3,
		Spans:   spans,
	}
}

type traceKey struct{}

// WithTrace attaches a trace to ctx.
func WithTrace(ctx context.Context, t *Trace) context.Context {
	return context.WithValue(ctx, traceKey{}, t)
}

// TraceFrom returns the trace attached to ctx, or nil.
func TraceFrom(ctx context.Context) *Trace {
	t, _ := ctx.Value(traceKey{}).(*Trace)
	return t
}

// MintTraceID returns a fresh random trace ID ("t-" + 12 hex bytes).
func MintTraceID() string {
	var b [12]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "t-000000000000000000000000"
	}
	return "t-" + hex.EncodeToString(b[:])
}

// ringSize bounds the in-memory recent-trace buffer per node.
const ringSize = 256

// Tracer owns a node's recent-trace ring and the HTTP middleware that
// populates it. A nil *Tracer middleware would be useless, so Tracer is
// always constructed; only its slow-log and ring are per-node state.
type Tracer struct {
	node    string
	slow    time.Duration
	slowLog func(format string, args ...any)

	mu   sync.Mutex
	ring [ringSize]TraceRecord
	n    uint64 // total traces recorded
}

// NewTracer builds a tracer for node. slow <= 0 disables slow-request
// logging; slowLog defaults to a no-op when nil.
func NewTracer(node string, slow time.Duration, slowLog func(format string, args ...any)) *Tracer {
	return &Tracer{node: node, slow: slow, slowLog: slowLog}
}

// Start begins a trace for an inbound request, reusing the upstream
// trace ID when the X-Relm-Trace header is present and minting one
// otherwise.
func (tr *Tracer) Start(r *http.Request) *Trace {
	id := strings.TrimSpace(r.Header.Get(TraceHeader))
	if id == "" {
		id = MintTraceID()
	}
	return &Trace{
		id:     id,
		node:   tr.node,
		method: r.Method,
		path:   r.URL.Path,
		start:  time.Now(),
	}
}

// Finish closes a trace: pushes it onto the ring and emits the slow-log
// line when the total exceeds the threshold.
func (tr *Tracer) Finish(t *Trace) {
	if t == nil {
		return
	}
	end := time.Now()
	rec := t.record(end)
	tr.mu.Lock()
	tr.ring[tr.n%ringSize] = rec
	tr.n++
	tr.mu.Unlock()
	if tr.slow > 0 && end.Sub(t.start) >= tr.slow && tr.slowLog != nil {
		tr.slowLog("slow request trace=%s node=%s method=%s path=%s total_us=%.1f spans=%d",
			rec.ID, rec.Node, rec.Method, rec.Path, rec.TotalUs, len(rec.Spans))
		for _, sp := range rec.Spans {
			tr.slowLog("slow request trace=%s span=%s start_us=%.1f dur_us=%.1f",
				rec.ID, sp.Name, sp.StartUs, sp.DurUs)
		}
	}
}

// Recent returns up to limit most-recent traces, newest first.
// limit <= 0 means the full ring.
func (tr *Tracer) Recent(limit int) []TraceRecord {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	n := tr.n
	avail := int(n)
	if avail > ringSize {
		avail = ringSize
	}
	if limit <= 0 || limit > avail {
		limit = avail
	}
	out := make([]TraceRecord, 0, limit)
	for i := 0; i < limit; i++ {
		out = append(out, tr.ring[(n-1-uint64(i))%ringSize])
	}
	return out
}

// Find returns the most recent trace with the given ID, if any.
func (tr *Tracer) Find(id string) (TraceRecord, bool) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	n := tr.n
	avail := int(n)
	if avail > ringSize {
		avail = ringSize
	}
	for i := 0; i < avail; i++ {
		rec := tr.ring[(n-1-uint64(i))%ringSize]
		if rec.ID == id {
			return rec, true
		}
	}
	return TraceRecord{}, false
}

// Middleware wraps an HTTP handler so every request carries a *Trace in
// its context, the trace ID is echoed back in the response header, and
// the finished trace lands in the ring.
func (tr *Tracer) Middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t := tr.Start(r)
		w.Header().Set(TraceHeader, t.ID())
		next.ServeHTTP(w, r.WithContext(WithTrace(r.Context(), t)))
		tr.Finish(t)
	})
}

// TracesResponse is the body of GET /v1/traces.
type TracesResponse struct {
	Node   string        `json:"node,omitempty"`
	Traces []TraceRecord `json:"traces"`
}

// Handler serves GET /v1/traces from the ring, for relm-serve and
// relm-router alike so tooling reads both: ?id= finds one trace (404 once
// it has left the ring), otherwise the most recent come newest first,
// ?limit= capping them. node labels the body; "" omits the label.
func (tr *Tracer) Handler(node string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		if id := q.Get("id"); id != "" {
			rec, ok := tr.Find(id)
			if !ok {
				wire.WriteJSON(w, http.StatusNotFound, map[string]string{"error": "trace not found: " + id})
				return
			}
			wire.WriteJSON(w, http.StatusOK, TracesResponse{Node: node, Traces: []TraceRecord{rec}})
			return
		}
		limit, _ := strconv.Atoi(q.Get("limit"))
		wire.WriteJSON(w, http.StatusOK, TracesResponse{Node: node, Traces: tr.Recent(limit)})
	})
}
