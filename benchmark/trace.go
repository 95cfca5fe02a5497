package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"relm/internal/obs"
	"relm/internal/store"
)

// span is one timed visit to a layer, recorded from outside the layer by a
// wrapper around its public entry point. Spans of one request share
// Request (the X-Relm-Trace ID the client mints and the router forwards);
// Parent names the span that caused this one.
type span struct {
	Name    string `json:"name"`
	Request string `json:"request,omitempty"`
	Parent  string `json:"parent,omitempty"`
	Node    string `json:"node,omitempty"`
	StartNs int64  `json:"start_ns"` // since the tracer's epoch
	EndNs   int64  `json:"end_ns"`
}

func (s span) us() float64 { return float64(s.EndNs-s.StartNs) / 1e3 }

// tracer keeps every span in memory until the run ends. A nil tracer means
// an untraced run: no wrapper is installed at all. A traced run starts
// with the wrappers installed but off, so the same process yields the
// untraced latency the tracing overhead is measured against.
type tracer struct {
	epoch time.Time
	on    atomic.Bool

	mu    sync.Mutex
	spans []span

	// inflight maps a session ID to the request a backend is serving for
	// it. A session has one request in flight at a time (its client waits
	// for each reply), so a store append for that session during the
	// request is that request's child.
	inflight sync.Map
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) record(name, request, parent, node string, start, end time.Time) {
	s := span{Name: name, Request: request, Parent: parent, Node: node,
		StartNs: int64(start.Sub(t.epoch)), EndNs: int64(end.Sub(t.epoch))}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

func (t *tracer) writeTo(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// requestID is what the client sends as X-Relm-Trace:
// "<session ID>:<operation>:<n>". The session and operation are read back
// out of it wherever a span is recorded.
func requestID(session, op string, n int) string {
	return session + ":" + op + ":" + strconv.Itoa(n)
}

func requestSession(id string) string {
	s, _, _ := strings.Cut(id, ":")
	return s
}

func requestOp(id string) string {
	_, rest, _ := strings.Cut(id, ":")
	op, _, _ := strings.Cut(rest, ":")
	return op
}

// wrapRouter times router.Router.ServeHTTP from outside.
func (t *tracer) wrapRouter(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		t.record("router", r.Header.Get(obs.TraceHeader), "client", "", start, time.Now())
	})
}

// wrapService times a node's service handler. Requests proxied for a
// client become "service" spans under the router's; replica ingest from
// the peer's shipper and health probes are background work, classified
// apart so they never count towards a client request.
func (t *tracer) wrapService(node string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		id := r.Header.Get(obs.TraceHeader)
		name, parent := "service", "router"
		switch {
		case strings.HasPrefix(r.URL.Path, "/v1/replica/"):
			name, parent = "replica.ingest", ""
		case r.URL.Path == "/healthz":
			name, parent = "service.health", ""
		}
		if name == "service" {
			sid := requestSession(id)
			t.inflight.Store(sid, id)
			defer t.inflight.Delete(sid)
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		t.record(name, id, parent, node, start, time.Now())
	})
}

// tracedStore is the timing decorator around the store.Store handed to a
// node's service: it sees every journal append, load and compaction the
// service issues, and counts the bytes an event costs in the log.
type tracedStore struct {
	store.Store
	t    *tracer
	node string

	events   atomic.Int64
	observes atomic.Int64
	bytes    atomic.Int64
}

func (s *tracedStore) Append(ev *store.Event) (uint64, error) {
	if !s.t.on.Load() {
		return s.Store.Append(ev)
	}
	start := time.Now()
	seq, err := s.Store.Append(ev)
	end := time.Now()
	req, _ := s.t.inflight.Load(ev.ID)
	id, _ := req.(string)
	parent := "service"
	if id == "" {
		parent = ""
	}
	s.t.record("store.append", id, parent, s.node, start, end)
	if err == nil {
		// The log holds one JSON line per event; re-encoding it here costs
		// the traced run only.
		if buf, merr := json.Marshal(ev); merr == nil {
			s.bytes.Add(int64(len(buf)) + 1)
		}
		s.events.Add(1)
		if ev.Type == store.EventObserve {
			s.observes.Add(1)
		}
	}
	return seq, err
}

func (s *tracedStore) Load() (*store.Snapshot, []store.Event, error) {
	start := time.Now()
	snap, evs, err := s.Store.Load()
	s.t.record("store.load", "", "", s.node, start, time.Now())
	return snap, evs, err
}

func (s *tracedStore) Compact(snap *store.Snapshot) error {
	start := time.Now()
	err := s.Store.Compact(snap)
	s.t.record("store.compact", "", "", s.node, start, time.Now())
	return err
}

// opBreakdown is the layer decomposition of one operation kind: sums, in
// µs, over the requests whose every span was recorded.
type opBreakdown struct {
	n                              int
	client, router, service, store float64
}

func (b opBreakdown) per(v float64) float64 {
	if b.n == 0 {
		return 0
	}
	return v / float64(b.n)
}

// Self times: what a layer spent that no child span covers.
func (b opBreakdown) unattributed() float64 { return b.client - b.router }
func (b opBreakdown) routerSelf() float64   { return b.router - b.service }
func (b opBreakdown) serviceSelf() float64  { return b.service - b.store }

// decompose joins the spans of each client request into its layer
// breakdown, keyed by operation ("create", "suggest", …) plus "all".
func decompose(spans []span) map[string]*opBreakdown {
	type parts struct {
		client, router, service, store float64
		hasClient, hasRouter, hasSvc   bool
	}
	byReq := make(map[string]*parts)
	get := func(id string) *parts {
		p := byReq[id]
		if p == nil {
			p = &parts{}
			byReq[id] = p
		}
		return p
	}
	for _, s := range spans {
		if s.Request == "" {
			continue
		}
		switch {
		case strings.HasPrefix(s.Name, "client."):
			p := get(s.Request)
			p.client, p.hasClient = s.us(), true
		case s.Name == "router":
			p := get(s.Request)
			p.router, p.hasRouter = s.us(), true
		case s.Name == "service":
			p := get(s.Request)
			p.service += s.us()
			p.hasSvc = true
		case s.Name == "store.append":
			get(s.Request).store += s.us()
		}
	}
	out := map[string]*opBreakdown{"all": {}}
	for id, p := range byReq {
		if !p.hasClient || !p.hasRouter || !p.hasSvc {
			continue // straddles the moment tracing was switched on
		}
		op := requestOp(id)
		b := out[op]
		if b == nil {
			b = &opBreakdown{}
			out[op] = b
		}
		for _, dst := range []*opBreakdown{b, out["all"]} {
			dst.n++
			dst.client += p.client
			dst.router += p.router
			dst.service += p.service
			dst.store += p.store
		}
	}
	return out
}

// spanDurations lists, in µs, the spans with the given name.
func spanDurations(spans []span, name string) []float64 {
	var durs []float64
	for _, s := range spans {
		if s.Name == name {
			durs = append(durs, s.us())
		}
	}
	return durs
}

// histDelta is a stage histogram's growth between two snapshots.
type histDelta struct {
	count uint64
	sumNs uint64
}

func (d histDelta) usPerCall() float64 {
	if d.count == 0 {
		return 0
	}
	return float64(d.sumNs) / float64(d.count) / 1e3
}

func (d histDelta) totalUs() float64 { return float64(d.sumNs) / 1e3 }

// stageDeltas subtracts stage-histogram snapshots taken before the traced
// phase from those taken after it, merged over registries (one per node).
func stageDeltas(before, after []map[string]obs.Snapshot) map[string]histDelta {
	out := make(map[string]histDelta)
	for i := range after {
		for name, a := range after[i] {
			d := out[name]
			d.count += a.Count
			d.sumNs += a.SumNs
			if i < len(before) {
				if b, ok := before[i][name]; ok {
					d.count -= b.Count
					d.sumNs -= b.SumNs
				}
			}
			out[name] = d
		}
	}
	return out
}
