package obs

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestTracerMiddlewareMintsAndEchoes(t *testing.T) {
	tr := NewTracer("node-a", 0, nil)
	var seen *Trace
	h := tr.Middleware(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seen = TraceFrom(r.Context())
		start := time.Now()
		seen.AddSpan("work", start)
		w.WriteHeader(http.StatusOK)
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/sessions/x", nil))
	if seen == nil {
		t.Fatal("no trace in request context")
	}
	id := rec.Header().Get(TraceHeader)
	if id == "" || id != seen.ID() {
		t.Fatalf("response header trace %q != context trace %q", id, seen.ID())
	}
	if !strings.HasPrefix(id, "t-") {
		t.Fatalf("minted id %q lacks t- prefix", id)
	}
	got, ok := tr.Find(id)
	if !ok {
		t.Fatalf("trace %s not in ring", id)
	}
	if got.Node != "node-a" || got.Path != "/v1/sessions/x" {
		t.Fatalf("ring record = %+v", got)
	}
	if len(got.Spans) != 1 || got.Spans[0].Name != "work" {
		t.Fatalf("spans = %+v", got.Spans)
	}
}

func TestTracerMiddlewarePropagatesUpstreamID(t *testing.T) {
	tr := NewTracer("node-b", 0, nil)
	h := tr.Middleware(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	req := httptest.NewRequest(http.MethodPost, "/v1/sessions", nil)
	req.Header.Set(TraceHeader, "t-upstream1234")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if got := rec.Header().Get(TraceHeader); got != "t-upstream1234" {
		t.Fatalf("echoed trace = %q, want upstream id", got)
	}
	if _, ok := tr.Find("t-upstream1234"); !ok {
		t.Fatal("upstream id not recorded in ring")
	}
}

func TestTracerRingBoundsAndOrder(t *testing.T) {
	tr := NewTracer("n", 0, nil)
	h := tr.Middleware(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	for i := 0; i < ringSize+10; i++ {
		req := httptest.NewRequest(http.MethodGet, "/ping", nil)
		req.Header.Set(TraceHeader, fmt.Sprintf("t-%06d", i))
		h.ServeHTTP(httptest.NewRecorder(), req)
	}
	all := tr.Recent(0)
	if len(all) != ringSize {
		t.Fatalf("ring holds %d, want %d", len(all), ringSize)
	}
	if all[0].ID != fmt.Sprintf("t-%06d", ringSize+9) {
		t.Fatalf("newest = %s", all[0].ID)
	}
	if _, ok := tr.Find("t-000001"); ok {
		t.Fatal("evicted trace still findable")
	}
	top := tr.Recent(5)
	if len(top) != 5 || top[4].ID != fmt.Sprintf("t-%06d", ringSize+5) {
		t.Fatalf("Recent(5) = %v", top)
	}
}

func TestTracerSlowLog(t *testing.T) {
	var lines []string
	tr := NewTracer("n", time.Nanosecond, func(format string, args ...any) {
		lines = append(lines, fmt.Sprintf(format, args...))
	})
	h := tr.Middleware(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		time.Sleep(50 * time.Microsecond)
		TraceFrom(r.Context()).AddSpan("slow.stage", start)
	}))
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/slow", nil))
	if len(lines) < 2 {
		t.Fatalf("slow log lines = %d, want request line + span line", len(lines))
	}
	if !strings.Contains(lines[0], "slow request") || !strings.Contains(lines[0], "path=/slow") {
		t.Fatalf("header line = %q", lines[0])
	}
	if !strings.Contains(lines[1], "span=slow.stage") {
		t.Fatalf("span line = %q", lines[1])
	}
}

func TestTraceSpanCapAndNilSafety(t *testing.T) {
	var nilTrace *Trace
	nilTrace.AddSpan("x", time.Now()) // must not panic
	if nilTrace.ID() != "" {
		t.Fatal("nil trace has id")
	}
	tr := &Trace{id: "t-cap", start: time.Now()}
	for i := 0; i < maxSpans+20; i++ {
		tr.AddSpan("s", time.Now())
	}
	rec := tr.record(time.Now())
	if len(rec.Spans) != maxSpans {
		t.Fatalf("spans = %d, want cap %d", len(rec.Spans), maxSpans)
	}
}

// addSpanAndReset adds one span to a trace built at full capacity and
// empties the slice again, so a measuring loop never reaches maxSpans.
func addSpanAndReset(tr *Trace, start time.Time) {
	tr.AddSpan("stage", start)
	tr.mu.Lock()
	tr.spans = tr.spans[:0]
	tr.mu.Unlock()
}

// TestTraceSpanAllocations: a traced request adds a span per stage, so
// AddSpan on a trace whose span slice has its capacity must not allocate —
// the name is stored by reference and the Span by value.
func TestTraceSpanAllocations(t *testing.T) {
	tr := &Trace{id: "t-alloc", start: time.Now(), spans: make([]Span, 0, maxSpans)}
	start := time.Now()
	if got := testing.AllocsPerRun(1000, func() { addSpanAndReset(tr, start) }); got != 0 {
		t.Errorf("Trace.AddSpan: %v allocs/op, want 0", got)
	}
}

func BenchmarkTraceSpan(b *testing.B) {
	tr := &Trace{id: "t-bench", start: time.Now(), spans: make([]Span, 0, maxSpans)}
	start := time.Now()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addSpanAndReset(tr, start)
	}
}
