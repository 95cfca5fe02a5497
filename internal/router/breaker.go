package router

import "time"

// Per-backend circuit breaker over every call (proxying, fan-outs and
// hand-overs — everything but the health probe). The health checker tells
// the router a node is *down*; the breaker tells it a node is *hurting us*
// — a black-holed backend fails health checks only after its own timeout,
// and until then every request sent to it would hang for the full timeout.
// The breaker cuts that off: after BreakerThreshold consecutive transport
// failures the node is open (no traffic at all), after an exponentially
// growing delay it goes half-open (exactly one in-flight probe request),
// and a served request closes it. A health-check success deliberately does
// NOT close the breaker: /healthz answering proves the process is up, not
// that it can serve a real request in time.

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

// brAcquire claims the right to send one request to the node.
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

// brSuccess closes the breaker: any served request proves the node good
// again.
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

// brFailure records one transport failure and returns the new
// state if the breaker tripped or re-opened (-1 otherwise).
func (n *node) brFailure(threshold int, probe, probeMax time.Duration, now time.Time) int {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.brProbing = false
	n.brFails++
	switch {
	case n.brState == brHalfOpen:
		// The probe failed: back to open, doubling the wait.
		n.brDelay = min(n.brDelay*2, probeMax)
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

// retried bumps the node's retried-away counter: a request aimed at this
// node was served by (or handed to) another candidate.
func (n *node) retried() {
	n.mu.Lock()
	n.retries++
	n.mu.Unlock()
}
