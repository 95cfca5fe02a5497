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
// the first refusal replayed otherwise. A first candidate whose breaker is
// open is passed over without spending budget.
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
		name        string
		answer      http.HandlerFunc // nil: every backend is down
		retryAfter  string
		breakerOpen bool // on the first candidate
	}{
		{"unreachable", nil, "", false},
		{"retriable 503", retriable503, "1", false},
		{"draining", drainingAnswer, "", false},
		{"retriable 503 behind an open breaker", retriable503, "1", true},
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
				if cond.breakerOpen {
					skipped, cands = cands[0], cands[1:]
					skipped.mu.Lock()
					skipped.brState, skipped.brUntil = brOpen, time.Now().Add(time.Hour)
					skipped.mu.Unlock()
				}

				got := run(t, tc)

				if skipped != nil && (hits[skipped.name].Load() != 0 || skipped.snapshot().Retries != 0) {
					t.Errorf("open-breaker candidate %s: %d requests, %d retries, want neither",
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
