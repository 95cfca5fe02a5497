package router

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
)

// benchRouter builds a router whose nodes are marked healthy by hand (no
// health checkers, no network): pick and dispatch cost only.
func benchRouter(b *testing.B, nodes int, rt http.RoundTripper) *Router {
	b.Helper()
	var backends []Backend
	for i := 0; i < nodes; i++ {
		backends = append(backends, Backend{Name: fmt.Sprintf("node-%02d", i), URL: fmt.Sprintf("http://10.0.0.%d:8080", i+1)})
	}
	r, err := New(Options{Backends: backends, Transport: rt})
	if err != nil {
		b.Fatalf("New: %v", err)
	}
	b.Cleanup(r.Close)
	for _, n := range r.nodes {
		n.mu.Lock()
		n.healthy = true
		n.mu.Unlock()
	}
	return r
}

// stubTransport answers every request in-process — proxy dispatch without
// a network.
type stubTransport struct{ body []byte }

func (t *stubTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Body != nil {
		io.Copy(io.Discard, req.Body)
		req.Body.Close()
	}
	return &http.Response{
		StatusCode: http.StatusOK,
		Header:     http.Header{"Content-Type": []string{"application/json"}},
		Body:       io.NopCloser(bytes.NewReader(t.body)),
		Request:    req,
	}, nil
}

// TestPickAllocations: every proxied request starts with a rendezvous pick,
// so scoring the eligible nodes for a key must not allocate at any cluster
// size — no candidate slice, no per-node hash state on the heap. The router
// is assembled by hand rather than through New: AllocsPerRun counts the whole
// process, and New's health checkers allocate while they dial.
func TestPickAllocations(t *testing.T) {
	key := mintID()
	for _, nodes := range []int{3, 16} {
		r := &Router{}
		for i := 0; i < nodes; i++ {
			r.nodes = append(r.nodes, &node{name: fmt.Sprintf("node-%02d", i), healthy: true})
		}
		if got := testing.AllocsPerRun(1000, func() {
			if r.pick(key) == nil {
				t.Fatal("no owner")
			}
		}); got != 0 {
			t.Errorf("pick over %d nodes: %v allocs/op, want 0", nodes, got)
		}
	}
}

// BenchmarkRouterRoute measures the router hot path with no network:
// rendezvous owner selection across cluster sizes, and one full proxied
// session-request dispatch (mux match, owner pick, outbound request build,
// response copy) against a stub transport.
func BenchmarkRouterRoute(b *testing.B) {
	keys := make([]string, 1024)
	for i := range keys {
		keys[i] = mintID()
	}
	for _, nodes := range []int{3, 16} {
		b.Run(fmt.Sprintf("pick/nodes=%d", nodes), func(b *testing.B) {
			r := benchRouter(b, nodes, nil)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if r.pick(keys[i%len(keys)]) == nil {
					b.Fatal("no owner")
				}
			}
		})
	}
	b.Run("dispatch", func(b *testing.B) {
		r := benchRouter(b, 3, &stubTransport{body: []byte(`{"id":"s-1","state":"active"}`)})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			req := httptest.NewRequest(http.MethodGet, "/v1/sessions/"+keys[i%len(keys)], nil)
			rec := httptest.NewRecorder()
			r.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				b.Fatalf("status %d", rec.Code)
			}
		}
	})
}
