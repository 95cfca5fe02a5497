package router

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"relm/internal/service"
	"relm/internal/store"
)

// TestOneWalk drives the router's one candidate walk through each of its
// three entries — a session request, a create, a hand-over adoption — over
// four backends that all fail the same way, and holds every entry to the
// same bound and the same bookkeeping: exactly 1+RetryBudget backends
// contacted, the retried-away counters bumped on all of those but the last,
// and the same ending — 502 "all backends unreachable" when none answered,
// the first refusal replayed otherwise. A first candidate held out by an
// earlier failed call is passed over with no request, no retry and no
// budget spent.
func TestOneWalk(t *testing.T) {
	const id = "s-walk"
	const budget = 2 // Options.RetryBudget's default
	drainingAnswer := func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, `{"error":"service: node draining, not accepting sessions"}`, http.StatusServiceUnavailable)
	}
	type outcome struct {
		code       int    // 0 for the adoption, which has no client response
		node       string // X-Relm-Node
		retryAfter string
		detail     string // the error the client (or the hand-over report) reads
	}
	entries := map[string]func(t *testing.T, tc *testCluster) outcome{
		"session": func(t *testing.T, tc *testCluster) outcome {
			var body struct{ Error string }
			code, hdr := tc.do(t, http.MethodGet, "/v1/sessions/"+id, nil, &body)
			return outcome{code, hdr.Get("X-Relm-Node"), hdr.Get("Retry-After"), body.Error}
		},
		"create": func(t *testing.T, tc *testCluster) outcome {
			var body struct{ Error string }
			code, hdr := tc.do(t, http.MethodPost, "/v1/sessions", map[string]any{"id": id, "backend": "bo"}, &body)
			return outcome{code, hdr.Get("X-Relm-Node"), hdr.Get("Retry-After"), body.Error}
		},
		"adopt": func(t *testing.T, tc *testCluster) outcome {
			reassigned, errs := tc.router.handOff(context.Background(), tc.router.nodes, service.HandoffReport{
				Sessions: []store.SessionSnapshot{{ID: id, State: service.StateActive}},
			})
			if len(reassigned) != 0 {
				t.Fatalf("adopted by %+v", reassigned)
			}
			return outcome{detail: errs["adopt "+id]}
		},
	}
	for _, cond := range []struct {
		name       string
		answer     http.HandlerFunc // nil: every backend is down
		retryAfter string
		heldOut    bool // the first candidate
	}{
		{"unreachable", nil, "", false},
		{"retriable 503", retriable503, "1", false},
		{"draining", drainingAnswer, "", false},
		{"retriable 503 behind a held-out node", retriable503, "1", true},
	} {
		for entry, run := range entries {
			t.Run(cond.name+"/"+entry, func(t *testing.T) {
				hits := make(map[string]*atomic.Int64)
				var backends []Backend
				for i := 0; i < 4; i++ {
					name := fmt.Sprintf("n%d", i)
					hits[name] = new(atomic.Int64)
					backends = append(backends, fakeBackend(t, name, func(w http.ResponseWriter, req *http.Request) {
						hits[name].Add(1)
						cond.answer(w, req)
					}))
				}
				tc := newFakeCluster(t, backends...)
				cands := candidates(tc.router.nodes, id)
				if cond.answer == nil {
					dead := httptest.NewServer(nil)
					dead.Close()
					for _, n := range cands {
						n.base, _ = n.base.Parse(dead.URL)
					}
				}
				var skipped *node
				if cond.heldOut {
					skipped, cands = cands[0], cands[1:]
					skipped.mu.Lock()
					skipped.suspect, skipped.lastErr = true, "an earlier call failed"
					skipped.mu.Unlock()
				}

				got := run(t, tc)

				if skipped != nil && (hits[skipped.name].Load() != 0 || skipped.snapshot().Retries != 0) {
					t.Errorf("held-out candidate %s: %d requests, %d retries, want neither",
						skipped.name, hits[skipped.name].Load(), skipped.snapshot().Retries)
				}

				// Exactly 1+budget backends contacted, in rendezvous order, and
				// all but the last of them counted a request retried away.
				for i, n := range cands {
					contacted := hits[n.name].Load() == 1
					if cond.answer == nil {
						contacted = !n.eligible() // a transport failure marks the node suspect
					}
					if want := i <= budget; contacted != want {
						t.Errorf("candidate %d (%s) contacted=%v, want %v", i, n.name, contacted, want)
					}
					wantRetries := uint64(0)
					if i < budget {
						wantRetries = 1
					}
					if st := n.snapshot(); st.Retries != wantRetries {
						t.Errorf("candidate %d (%s) retries %d, want %d", i, n.name, st.Retries, wantRetries)
					}
				}
				// The same ending from every entry.
				first := cands[0].name
				switch {
				case cond.answer == nil:
					if !strings.Contains(got.detail, "all backends unreachable") || (got.code != 0 && got.code != http.StatusBadGateway) {
						t.Fatalf("ending %+v, want 502 all backends unreachable", got)
					}
				case got.code == 0:
					if !strings.HasPrefix(got.detail, "node "+first+": status 503") {
						t.Fatalf("hand-over error %q, want the first refusal (node %s, status 503)", got.detail, first)
					}
				default:
					if got.code != http.StatusServiceUnavailable || got.node != first || got.retryAfter != cond.retryAfter {
						t.Fatalf("ending %+v, want the first refusal replayed: 503 from %s, Retry-After %q", got, first, cond.retryAfter)
					}
				}
			})
		}
	}
}

// TestClientHangUpHoldsNoNodeOut: a client that gives up mid-request is not
// a node failure. The walk ends at the candidate it was waiting on — the
// others are never asked — and every node stays in placement.
func TestClientHangUpHoldsNoNodeOut(t *testing.T) {
	hits := make(map[string]*atomic.Int64)
	var backends []Backend
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("n%d", i)
		hits[name] = new(atomic.Int64)
		backends = append(backends, fakeBackend(t, name, func(http.ResponseWriter, *http.Request) {
			hits[name].Add(1)
			time.Sleep(300 * time.Millisecond)
		}))
	}
	tc := newFakeCluster(t, backends...)

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, tc.front.URL+"/v1/sessions", strings.NewReader(`{"backend":"bo"}`))
	if err != nil {
		t.Fatal(err)
	}
	if resp, err := http.DefaultClient.Do(req); err == nil {
		resp.Body.Close()
		t.Fatal("the router answered before the client gave up")
	}
	time.Sleep(100 * time.Millisecond) // for a walk that missed the hang-up to ask the next candidate

	contacted := 0
	for name, n := range hits {
		contacted += int(n.Load())
		if node := tc.router.nodeByName(name); !node.eligible() {
			t.Errorf("node %s held out after a client hang-up: %+v", name, node.snapshot())
		}
	}
	if contacted != 1 {
		t.Fatalf("%d backends contacted, want 1 (the walk stops when the client goes)", contacted)
	}
}
