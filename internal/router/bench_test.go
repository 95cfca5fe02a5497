package router

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// handRouter is a router assembled by hand, as TestPickAllocations needs it:
// nodes healthy from the start, no health checkers, no network.
func handRouter(nodes int) *Router {
	r := &Router{}
	for i := 0; i < nodes; i++ {
		r.nodes = append(r.nodes, &node{name: fmt.Sprintf("node-%02d", i), healthy: true})
	}
	return r
}

// loopbackRouter is a real router in front of one loopback backend "a" that
// serve answers for (its /healthz is answered here), and the front door's URL
// beside the backend's.
func loopbackRouter(tb testing.TB, serve http.HandlerFunc) (r *Router, front, backend string) {
	tb.Helper()
	back := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path == "/healthz" {
			io.WriteString(w, `{"ok":true}`)
			return
		}
		serve(w, req)
	}))
	tb.Cleanup(back.Close)
	r, err := New(Options{Backends: []Backend{{Name: "a", URL: back.URL}}, CheckInterval: 5 * time.Millisecond})
	if err != nil {
		tb.Fatalf("New: %v", err)
	}
	tb.Cleanup(r.Close)
	for len(r.eligibleNodes()) == 0 {
		time.Sleep(time.Millisecond)
	}
	srv := httptest.NewServer(r)
	tb.Cleanup(srv.Close)
	return r, srv.URL, back.URL
}

// answering serves every request 200 with answer, once it has read the body.
func answering(answer []byte) http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) {
		io.Copy(io.Discard, req.Body)
		w.Header().Set("Content-Type", "application/json")
		w.Write(answer)
	}
}

// TestPickAllocations: every proxied request starts with a rendezvous pick,
// so scoring the eligible nodes for a key must not allocate at any cluster
// size — no candidate slice, no per-node hash state on the heap. The router
// is assembled by hand rather than through New: AllocsPerRun counts the whole
// process, and New's health checkers allocate while they dial.
func TestPickAllocations(t *testing.T) {
	key := mintID()
	for _, nodes := range []int{3, 16} {
		r := handRouter(nodes)
		if got := testing.AllocsPerRun(1000, func() {
			if r.pick(key) == nil {
				t.Fatal("no owner")
			}
		}); got != 0 {
			t.Errorf("pick over %d nodes: %v allocs/op, want 0", nodes, got)
		}
	}
}

// BenchmarkRouterRoute measures the router hot path: rendezvous owner
// selection across cluster sizes with no network, and one full proxied
// session-request dispatch (mux match, owner pick, the exchange with a
// loopback backend, response copy) with no client connection in front.
func BenchmarkRouterRoute(b *testing.B) {
	keys := make([]string, 1024)
	for i := range keys {
		keys[i] = mintID()
	}
	for _, nodes := range []int{3, 16} {
		b.Run(fmt.Sprintf("pick/nodes=%d", nodes), func(b *testing.B) {
			r := handRouter(nodes)
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
		r, _, _ := loopbackRouter(b, answering([]byte(`{"id":"s-1","state":"active"}`)))
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

// BenchmarkHop prices the router hop: one closed-loop client sends an 800-byte
// POST and reads a 600-byte answer, straight to a loopback backend (direct)
// and through a router in front of it (routed). routed − direct is what the
// hop costs a request.
func BenchmarkHop(b *testing.B) {
	_, front, backend := loopbackRouter(b, answering(bytes.Repeat([]byte("a"), 600)))
	body := bytes.Repeat([]byte("q"), 800)
	for _, c := range []struct{ name, base string }{{"direct", backend}, {"routed", front}} {
		b.Run(c.name, func(b *testing.B) {
			client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
			defer client.CloseIdleConnections()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				resp, err := client.Post(c.base+"/v1/sessions/s-1/observe", "application/json", bytes.NewReader(body))
				if err != nil {
					b.Fatal(err)
				}
				n, _ := io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK || n != 600 {
					b.Fatalf("status %d, %d bytes", resp.StatusCode, n)
				}
			}
		})
	}
}
