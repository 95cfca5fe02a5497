package router

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"time"

	"relm/internal/fault"
	"relm/internal/obs"
)

// fpProxy is the router's data-path failpoint, evaluated per proxied send
// with the backend's name as the tag — so a schedule can partition one
// backend (match), delay it (latency/stall), or black-hole it (error/
// drop). Injected failures run through the same breaker bookkeeping as
// real transport errors.
var fpProxy = fault.Register("router.proxy")

// Per-backend circuit breaker over the data path (proxying and fan-outs).
// The health checker tells the router a node is *down*; the breaker tells
// it a node is *hurting us* — a black-holed backend fails health checks
// only after its own timeout, and until then every proxied request would
// hang for the full client timeout. The breaker cuts that off: after
// BreakerThreshold consecutive transport failures the node is open (no
// data-path traffic at all), after an exponentially growing delay it goes
// half-open (exactly one in-flight probe request), and a data-path
// success closes it. A health-check success deliberately does NOT close
// the breaker: /healthz answering proves the process is up, not that it
// can serve a real request in time.

const (
	brClosed = iota
	brOpen
	brHalfOpen
)

func breakerWord(state int) string {
	switch state {
	case brOpen:
		return "open"
	case brHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// errBreakerOpen reports a send skipped because the node's breaker had no
// capacity (open, or half-open with the probe slot taken).
var errBreakerOpen = errors.New("router: breaker open")

// brAcquire claims the right to send one data-path request to the node.
// Closed always admits; open admits nothing until the probe delay passes,
// then transitions to half-open; half-open admits exactly one in-flight
// probe. The claim must be released by brSuccess or brFailure.
func (n *node) brAcquire(now time.Time) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	switch n.brState {
	case brClosed:
		return true
	case brOpen:
		if now.Before(n.brUntil) {
			return false
		}
		n.brState = brHalfOpen
		n.brProbing = true
		return true
	default: // half-open
		if n.brProbing {
			return false
		}
		n.brProbing = true
		return true
	}
}

// brAvailable reports whether brAcquire could currently succeed, without
// claiming anything — the placement filter.
func (n *node) brAvailable(now time.Time) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	switch n.brState {
	case brClosed:
		return true
	case brOpen:
		return !now.Before(n.brUntil)
	default:
		return !n.brProbing
	}
}

// brSuccess closes the breaker: any served data-path request proves the
// node good again.
func (n *node) brSuccess() (reopened bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	closedNow := n.brState != brClosed
	n.brState = brClosed
	n.brProbing = false
	n.brFails = 0
	n.brDelay = 0
	return closedNow
}

// brFailure records one data-path transport failure and returns the new
// state if the breaker tripped or re-opened (-1 otherwise).
func (n *node) brFailure(threshold int, probe, probeMax time.Duration, now time.Time) int {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.brProbing = false
	n.brFails++
	switch {
	case n.brState == brHalfOpen:
		// The probe failed: back to open, doubling the wait.
		n.brDelay = minDur(n.brDelay*2, probeMax)
		n.brState = brOpen
		n.brUntil = now.Add(n.brDelay)
		n.brOpens++
		return brOpen
	case n.brState == brClosed && n.brFails >= threshold:
		n.brDelay = probe
		n.brState = brOpen
		n.brUntil = now.Add(n.brDelay)
		n.brOpens++
		return brOpen
	}
	return -1
}

func minDur(a, b time.Duration) time.Duration {
	if a < b {
		return a
	}
	return b
}

// retried bumps the node's retried-away counter: a request aimed at this
// node was served by (or handed to) another candidate.
func (n *node) retried() {
	n.mu.Lock()
	n.retries++
	n.mu.Unlock()
}

// sendTracked is send with the breaker wrapped around it: it claims
// breaker capacity, counts the transport outcome, and reports
// errBreakerOpen when the node is not taking data-path traffic. HTTP
// error statuses are successes to the breaker — the node answered.
func (r *Router) sendTracked(ctx context.Context, client *http.Client, n *node, method, path, query string, body []byte) (int, []byte, http.Header, error) {
	if !n.brAcquire(time.Now()) {
		return 0, nil, nil, errBreakerOpen
	}
	if fp := fpProxy.EvalTag(n.name); fp != nil {
		switch fp.Action {
		case fault.Latency, fault.Stall:
			fp.Sleep()
		default:
			// An injected partition: the request never reaches the node,
			// and the breaker counts the failure like any transport error.
			if st := n.brFailure(r.opts.BreakerThreshold, r.opts.BreakerProbe, r.opts.BreakerProbeMax, time.Now()); st >= 0 {
				r.logf("router: node %s breaker %s (%v)", n.name, breakerWord(st), fp.Err)
			}
			return 0, nil, nil, fp.Err
		}
	}
	start := time.Now()
	status, buf, hdr, err := r.send(ctx, client, n, method, path, query, body)
	r.histProxy.Record(time.Since(start))
	obs.TraceFrom(ctx).AddSpan("proxy "+n.name, start)
	if err != nil {
		if st := n.brFailure(r.opts.BreakerThreshold, r.opts.BreakerProbe, r.opts.BreakerProbeMax, time.Now()); st >= 0 {
			r.logf("router: node %s breaker %s (%v)", n.name, breakerWord(st), err)
		}
		return status, buf, hdr, err
	}
	if n.brSuccess() {
		r.logf("router: node %s breaker closed", n.name)
	}
	return status, buf, hdr, nil
}

// isDraining503 recognises a backend refusing a request because it is
// draining — worth spending retry budget on another candidate, unlike
// other 4xx/5xx answers which would repeat anywhere.
func isDraining503(status int, body []byte) bool {
	return status == http.StatusServiceUnavailable && bytes.Contains(body, []byte("draining"))
}

// isRetriable503 recognises a backend that refused a request it could not
// durably acknowledge — store append/fsync failures and injected faults
// are mapped by the service to 503 + Retry-After. The identical request
// may succeed on another candidate or later, so the router spends retry
// budget walking on; and since only a node that actually holds (or would
// accept) the session answers this way, a remembered retriable 503 is
// preferred over a 404 fallthrough when every other candidate misses.
func isRetriable503(status int, hdr http.Header) bool {
	return status == http.StatusServiceUnavailable && hdr != nil && hdr.Get("Retry-After") != ""
}
