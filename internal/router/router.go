// Package router is the stateless HTTP front door of a multi-node tuning
// deployment: it partitions sessions across N relm-serve backends by
// rendezvous (highest-random-weight) hashing on the session ID, proxies the
// whole /v1/sessions lifecycle to each session's home node, fans out and
// merges the cluster-wide read endpoints (/v1/sessions, /v1/metrics,
// /v1/repository), and health-checks every backend with exponential
// backoff.
//
// Rendezvous hashing keeps the router stateless: the owner of a session is
// a pure function of (session ID, set of healthy nodes), so any number of
// router replicas agree on placement without a shared ring, and removing a
// node remaps only that node's sessions. The router mints session IDs on
// create (the backends honour them via Spec.ID) so the routing key exists
// before the session does.
//
// Sessions move between nodes one way (handoff.go): a draining node (POST
// /v1/cluster/drain/{node}) and a promoted replica of a dead one both yield
// a service.HandoffReport, and handOff posts each of its session snapshots
// to the session's new rendezvous owner, which rebuilds the tuner from it
// exactly as crash recovery would — same history, same next suggestion.
package router

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"sync"
	"sync/atomic"
	"time"

	"relm/internal/fault"
	"relm/internal/obs"
	"relm/internal/replica"
	"relm/internal/wire"
)

// Backend names one relm-serve node. Name is the node identity the backend
// was started with (-node-id); the health check cross-verifies it against
// the identity the node reports, catching a router pointed at the wrong
// process.
type Backend struct {
	Name string
	URL  string
}

// Options configures a Router. Zero values select sensible defaults.
type Options struct {
	// Backends is the set of relm-serve nodes to partition sessions over.
	Backends []Backend
	// CheckInterval is the healthy-node poll period (default 2s). Failing
	// nodes are polled with exponential backoff from CheckInterval up to
	// BackoffMax (default 30s).
	CheckInterval time.Duration
	BackoffMax    time.Duration
	// FailAfter is how many consecutive health-check failures mark a node
	// unhealthy (default 2). One successful check marks it healthy again.
	FailAfter int
	// Timeout bounds each backend request (default 15s). Drain, adopt,
	// import and promote calls get 4x this: they close, rebuild or replay
	// whole sessions.
	Timeout time.Duration
	// Logf, when non-nil, receives health-transition and drain log lines.
	Logf func(format string, args ...any)
	// RetryBudget is how many additional candidates a routed request or a
	// hand-over adoption may be retried on after its first choice fails at
	// the transport level or refuses with 503 draining / 503 + Retry-After
	// (default 2). The budget bounds worst-case latency: a request never
	// waits on more than 1+RetryBudget backends.
	RetryBudget int
	// BreakerThreshold is how many consecutive transport failures open a
	// backend's circuit breaker (default 3). An open breaker admits nothing
	// but the health probe; after BreakerProbe (doubling up to
	// BreakerProbeMax on repeated failure, defaults 1s/30s) one half-open
	// probe request is admitted, and its success closes the breaker.
	BreakerThreshold int
	BreakerProbe     time.Duration
	BreakerProbeMax  time.Duration
	// Promote enables automatic fail-over: when a backend dies without
	// draining, the router promotes its replica on a surviving follower and
	// has the survivors adopt the lost sessions (requires -replicate-to on
	// the backends).
	Promote bool
	// Obs is the stage-latency registry (router.pick / router.proxy /
	// router.fanout). Created when nil, so instrumentation is always live.
	Obs *obs.Registry
	// SlowLog, when > 0, logs any request slower than this span-by-span
	// through Logf.
	SlowLog time.Duration
}

func (o *Options) fill() {
	if o.CheckInterval == 0 {
		o.CheckInterval = 2 * time.Second
	}
	if o.BackoffMax == 0 {
		o.BackoffMax = 30 * time.Second
	}
	if o.FailAfter == 0 {
		o.FailAfter = 2
	}
	if o.Timeout == 0 {
		o.Timeout = 15 * time.Second
	}
	if o.RetryBudget == 0 {
		o.RetryBudget = 2
	}
	if o.BreakerThreshold == 0 {
		o.BreakerThreshold = 3
	}
	if o.BreakerProbe == 0 {
		o.BreakerProbe = time.Second
	}
	if o.BreakerProbeMax == 0 {
		o.BreakerProbeMax = 30 * time.Second
	}
	if o.Obs == nil {
		o.Obs = obs.NewRegistry()
	}
}

// node is the router's view of one backend. All mutable fields behind mu.
type node struct {
	name string
	base *url.URL

	mu        sync.Mutex
	healthy   bool
	draining  bool
	fails     int
	sessions  int
	lastErr   string
	lastCheck time.Time

	// Circuit breaker (see breaker.go).
	brState   int
	brFails   int
	brProbing bool
	brUntil   time.Time
	brDelay   time.Duration
	brOpens   uint64
	retries   uint64

	// Fail-over bookkeeping (see promote.go). promoted is sticky: a node
	// that died and was promoted away stays promoted even if its process
	// revives — its data lives elsewhere now and a revived copy is stale.
	promoting bool
	promoted  bool
}

func (n *node) snapshot() NodeStatus {
	n.mu.Lock()
	defer n.mu.Unlock()
	return NodeStatus{
		Name:         n.name,
		URL:          n.base.String(),
		Healthy:      n.healthy,
		Draining:     n.draining,
		Sessions:     n.sessions,
		Fails:        n.fails,
		LastError:    n.lastErr,
		LastCheck:    n.lastCheck,
		Breaker:      breakerWord(n.brState),
		BreakerOpens: n.brOpens,
		Retries:      n.retries,
		Promoted:     n.promoted,
	}
}

// eligible reports whether the node may receive traffic.
func (n *node) eligible() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.healthy && !n.draining
}

// suspect marks a node unhealthy after a failed proxy attempt, without
// waiting for the health checker to notice.
func (n *node) suspect(err error, failAfter int) {
	n.mu.Lock()
	n.healthy = false
	if n.fails < failAfter {
		n.fails = failAfter
	}
	n.lastErr = err.Error()
	n.mu.Unlock()
}

// NodeStatus is the wire form of one backend's state (GET /v1/cluster).
type NodeStatus struct {
	Name      string    `json:"name"`
	URL       string    `json:"url"`
	Healthy   bool      `json:"healthy"`
	Draining  bool      `json:"draining,omitempty"`
	Sessions  int       `json:"sessions"`
	Fails     int       `json:"fails,omitempty"`
	LastError string    `json:"last_error,omitempty"`
	LastCheck time.Time `json:"last_check,omitzero"`
	// Breaker is the node's circuit-breaker state (closed/open/half-open);
	// BreakerOpens counts trips, Retries counts requests retried away from
	// this node onto another candidate.
	Breaker      string `json:"breaker"`
	BreakerOpens uint64 `json:"breaker_opens,omitempty"`
	Retries      uint64 `json:"retries,omitempty"`
	// Promoted reports the node's replica was promoted after it died; a
	// revived process under this name holds stale state.
	Promoted bool `json:"promoted,omitempty"`
}

// Router partitions tuning sessions across backends. It is an http.Handler;
// all methods are safe for concurrent use.
type Router struct {
	opts  Options
	nodes []*node
	// client carries every backend request: call's and the health probe's.
	client    wire.Client
	mux       http.Handler
	quit      chan struct{}
	wg        sync.WaitGroup
	closeOnce sync.Once

	// Observability: request tracer plus the stage histograms, resolved
	// once at construction so the data path never takes a registry lock.
	tracer     *obs.Tracer
	histPick   *obs.Histogram
	histProxy  *obs.Histogram
	histFanout *obs.Histogram

	// Fail-over accounting (see promote.go).
	promotions atomic.Uint64
	promoMu    sync.Mutex
	lastPromo  *PromotionReport
}

// New builds a Router over opts.Backends and starts its health checkers.
// Call Close to stop them.
func New(opts Options) (*Router, error) {
	opts.fill()
	if len(opts.Backends) == 0 {
		return nil, fmt.Errorf("router: no backends configured")
	}
	r := &Router{opts: opts, quit: make(chan struct{})}
	seen := make(map[string]bool)
	for _, b := range opts.Backends {
		if b.Name == "" {
			return nil, fmt.Errorf("router: backend %q has no name", b.URL)
		}
		if seen[b.Name] {
			return nil, fmt.Errorf("router: duplicate backend name %q", b.Name)
		}
		seen[b.Name] = true
		u, err := wire.ParseBase(b.URL)
		if err != nil {
			return nil, fmt.Errorf("router: backend %s: %w", b.Name, err)
		}
		r.nodes = append(r.nodes, &node{name: b.Name, base: u})
	}
	r.tracer = obs.NewTracer("router", opts.SlowLog, opts.Logf)
	r.histPick = opts.Obs.Histogram("router.pick")
	r.histProxy = opts.Obs.Histogram("router.proxy")
	r.histFanout = opts.Obs.Histogram("router.fanout")
	r.mux = r.buildMux()
	for _, n := range r.nodes {
		r.wg.Add(1)
		go r.healthLoop(n)
	}
	return r, nil
}

// Close stops the health checkers and closes the idle backend connections.
func (r *Router) Close() {
	r.closeOnce.Do(func() { close(r.quit) })
	r.wg.Wait()
	r.client.Close()
}

func (r *Router) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	r.mux.ServeHTTP(w, req)
}

func (r *Router) logf(format string, args ...any) {
	if r.opts.Logf != nil {
		r.opts.Logf(format, args...)
	}
}

// --- placement -------------------------------------------------------------

// next returns the node that follows prev in key's rendezvous order among
// the members of nodes currently accepting traffic — healthy, not draining,
// and with breaker capacity (closed, or due a half-open probe) — or nil when
// none is left; prev nil asks for the key's owner. The order is descending
// score with ties broken by name, so it is total. This is the router's only
// ranking routine: one pass, no candidate slice and no sort, so the request
// that ends at its owner scores each node once and allocates nothing.
func next(nodes []*node, key string, prev *node) *node {
	now := time.Now()
	var prevScore uint64
	if prev != nil {
		prevScore = replica.Rendezvous(prev.name, key)
	}
	var best *node
	var bestScore uint64
	for _, n := range nodes {
		s := replica.Rendezvous(n.name, key)
		if prev != nil && (s > prevScore || (s == prevScore && n.name <= prev.name)) {
			continue // prev itself, or ranked before it
		}
		if best != nil && (s < bestScore || (s == bestScore && n.name > best.name)) {
			continue
		}
		if n.eligible() && n.brAvailable(now) {
			best, bestScore = n, s
		}
	}
	return best
}

// eligibleNodes snapshots the nodes currently accepting traffic, for the
// fan-outs and hand-overs that address all of them at once.
func (r *Router) eligibleNodes() []*node {
	now := time.Now()
	out := make([]*node, 0, len(r.nodes))
	for _, n := range r.nodes {
		if n.eligible() && n.brAvailable(now) {
			out = append(out, n)
		}
	}
	return out
}

func (r *Router) nodeByName(name string) *node {
	for _, n := range r.nodes {
		if n.name == name {
			return n
		}
	}
	return nil
}

// mintID generates a cluster-unique session ID: the routing key must exist
// before the session does, so the router (not the backend) assigns it.
func mintID() string {
	var b [9]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("router: crypto/rand failed: %v", err))
	}
	return fmt.Sprintf("s-%x", b)
}

// --- health checking -------------------------------------------------------

// backendHealth is the backend /healthz body the checker reads.
type backendHealth struct {
	OK       bool   `json:"ok"`
	Sessions int    `json:"sessions"`
	Node     string `json:"node"`
	Draining bool   `json:"draining"`
}

// healthLoop polls one backend: every CheckInterval while it answers, with
// exponential backoff (doubling up to BackoffMax) while it does not. A node
// is marked unhealthy after FailAfter consecutive failures and healthy
// again on the first success.
func (r *Router) healthLoop(n *node) {
	defer r.wg.Done()
	timer := time.NewTimer(0) // first check immediately
	defer timer.Stop()
	delay := r.opts.CheckInterval
	for {
		select {
		case <-r.quit:
			return
		case <-timer.C:
		}
		err := r.checkNode(n)
		n.mu.Lock()
		wasHealthy := n.healthy
		if err == nil {
			n.fails = 0
			n.healthy = true
			n.lastErr = ""
			delay = r.opts.CheckInterval
		} else {
			n.fails++
			n.lastErr = err.Error()
			if n.fails >= r.opts.FailAfter {
				n.healthy = false
			}
			delay = min(r.opts.CheckInterval<<min(n.fails, 16), r.opts.BackoffMax)
		}
		n.lastCheck = time.Now()
		isHealthy := n.healthy
		n.mu.Unlock()
		if wasHealthy != isHealthy {
			r.logf("router: node %s %s (%v)", n.name, healthWord(isHealthy), err)
		}
		if !isHealthy && r.opts.Promote {
			// Health-check death (not drain) is the promotion trigger.
			// maybePromote single-flights per node and no-ops once done; a
			// failed attempt retries on the next failed check.
			r.maybePromote(n)
		}
		timer.Reset(delay)
	}
}

func healthWord(healthy bool) string {
	if healthy {
		return "healthy"
	}
	return "unhealthy"
}

// checkNode performs one health probe, cross-verifying the node identity
// and adopting a backend-initiated drain.
//
// The probe deliberately bypasses call — it is the client's other caller,
// with no breaker claim and no router.proxy failpoint: it must keep
// reaching a node whose breaker is open or that a router.proxy schedule has
// partitioned, because it reports whether the process is up, not whether it
// serves in time.
func (r *Router) checkNode(n *node) error {
	status, _, body, err := r.client.Do(context.Background(), time.Now().Add(r.opts.Timeout), http.MethodGet, n.base.Host, n.base.Path+"/healthz", "", "", nil, 1<<16)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("healthz status %d", status)
	}
	var h backendHealth
	if err := json.Unmarshal(body, &h); err != nil {
		return fmt.Errorf("healthz body: %w", err)
	}
	if !h.OK {
		return fmt.Errorf("healthz reports not ok")
	}
	if h.Node != "" && h.Node != n.name {
		return fmt.Errorf("identity mismatch: configured %q, node reports %q", n.name, h.Node)
	}
	n.mu.Lock()
	n.sessions = h.Sessions
	if h.Draining {
		n.draining = true // a node never un-drains
	}
	n.mu.Unlock()
	return nil
}

// --- reaching a backend ----------------------------------------------------

// fpProxy is the failpoint on the router→backend hop, evaluated in call
// with the backend's name as the tag — so a schedule can partition one
// backend (match), delay it (latency/stall), or black-hole it (error/
// drop), on the data path and the hand-over path alike. Injected failures
// run through the same breaker bookkeeping as real transport errors.
var fpProxy = fault.Register("router.proxy")

// errBreakerOpen reports a call skipped because the node's breaker had no
// capacity (open, or half-open with the probe slot taken).
var errBreakerOpen = errors.New("router: breaker open")

// errNoBackend reports a walk that found no node to send to.
var errNoBackend = errors.New("no healthy backend")

// reply is one backend's answer to one call.
type reply struct {
	node   *node
	status int
	body   []byte
	hdr    http.Header
}

// refusal words a reply that is not the answer the caller needed.
func (rep reply) refusal() string {
	body, more := rep.body, ""
	if len(body) > 200 {
		body, more = body[:200], "…"
	}
	return fmt.Sprintf("status %d: %s%s", rep.status, body, more)
}

// call is the one way the router talks to a backend (the health probe
// aside). It claims breaker capacity — errBreakerOpen when the node has
// none — evaluates the router.proxy failpoint, bounds the exchange with
// timeout, propagates the trace in ctx so the backend's spans join it,
// records the "proxy <node>" span and the router.proxy histogram, and books
// the transport outcome on the breaker; the exchange itself is wire.Client's.
// target is the request target as it goes on the wire: escaped path, query.
// HTTP error statuses are successes to the breaker: the node answered.
func (r *Router) call(ctx context.Context, n *node, timeout time.Duration, method, target string, body []byte) (rep reply, err error) {
	rep.node = n
	if !n.brAcquire(time.Now()) {
		return rep, errBreakerOpen
	}
	defer func() {
		if err == nil {
			if n.brSuccess() {
				r.logf("router: node %s breaker closed", n.name)
			}
		} else if st := n.brFailure(r.opts.BreakerThreshold, r.opts.BreakerProbe, r.opts.BreakerProbeMax, time.Now()); st >= 0 {
			r.logf("router: node %s breaker %s (%v)", n.name, breakerWord(st), err)
		}
	}()
	if fp := fpProxy.EvalTag(n.name); fp != nil {
		switch fp.Action {
		case fault.Latency, fault.Stall:
			fp.Sleep()
		default:
			// An injected partition: the request never reaches the node,
			// and the breaker counts the failure like any transport error.
			return rep, fp.Err
		}
	}
	trace, start := obs.TraceFrom(ctx), time.Now()
	defer func() {
		r.histProxy.Record(time.Since(start))
		trace.AddSpan("proxy "+n.name, start)
	}()
	rep.status, rep.hdr, rep.body, err = r.client.Do(ctx, start.Add(timeout), method, n.base.Host, n.base.Path+target, trace.ID(), "application/json", body, 64<<20)
	return rep, err
}

// isDraining503 recognises a backend refusing a request because it is
// draining — worth spending retry budget on another candidate, unlike
// other 4xx/5xx answers which would repeat anywhere.
func isDraining503(rep reply) bool {
	return rep.status == http.StatusServiceUnavailable && bytes.Contains(rep.body, []byte("draining"))
}

// isRetriable503 recognises a backend that refused a request it could not
// durably acknowledge — store append/fsync failures and injected faults
// are mapped by the service to 503 + Retry-After. The identical request
// may succeed on another candidate or later, so the router spends retry
// budget walking on.
func isRetriable503(rep reply) bool {
	return rep.status == http.StatusServiceUnavailable && rep.hdr.Get("Retry-After") != ""
}

// judge classifies one backend answer for a walk. Rank 0 ends the walk:
// the answer is the client's. Any other rank moves on to the next
// candidate — for free when the node merely does not hold what was asked
// for, spending retry budget when it refused — and orders the non-final
// answers by how truthful each would be to replay should no candidate give
// a final one.
type judge func(reply) (rank int, free bool)

// judgePlacement judges an answer to a request no node is bound to yet — a
// create, a hand-over adoption: a draining or journal-degraded node's
// refusal moves the placement on to the next candidate, anything else is
// the answer.
func judgePlacement(rep reply) (rank int, free bool) {
	if isDraining503(rep) || isRetriable503(rep) {
		return 1, false
	}
	return 0, false
}

// judgeSession judges an answer to a request for an existing session. A 404
// is a free miss: the session may live on a lower candidate. A retriable
// 503 outranks the 404s of the other candidates: it came from the node that
// actually holds the session (one without it answers 404 even while
// degraded), so replaying a 404 would misreport a live-but-unwritable
// session as gone — and turn a retriable fault into a terminal answer.
func judgeSession(rep reply) (rank int, free bool) {
	switch {
	case isDraining503(rep):
		return 1, false
	case rep.status == http.StatusNotFound:
		return 2, true
	case isRetriable503(rep):
		return 3, false
	}
	return 0, false
}

// walk sends one request down key's rendezvous candidates among nodes until
// one gives a final answer, and returns that answer. It is the only loop
// over candidates, so every routed request is bounded the same way: a
// transport error (the node is marked suspect) or a budget-spending refusal
// moves on at most RetryBudget times, so a request never waits on more than
// 1+RetryBudget slow backends; a free miss and a breaker that admits
// nothing cost no budget — the node answered fast, or was never asked.
//
// With no final answer the highest-ranked non-final one is returned (the
// first, among equals), for the caller to replay. The error is non-nil only
// when no candidate answered at all: errNoBackend when there was none to
// ask, the last transport error otherwise.
func (r *Router) walk(ctx context.Context, nodes []*node, key string, timeout time.Duration, method, target string, body []byte, verdict judge) (reply, error) {
	var kept reply
	keptRank, spent := 0, 0
	lastErr := errNoBackend
	var n *node
	for spent <= r.opts.RetryBudget {
		pickStart := time.Now()
		n = next(nodes, key, n)
		r.histPick.Record(time.Since(pickStart))
		if n == nil {
			break
		}
		rep, err := r.call(ctx, n, timeout, method, target, body)
		switch {
		case errors.Is(err, errBreakerOpen):
			continue // lost a race for the breaker's capacity
		case err != nil:
			n.suspect(err, r.opts.FailAfter)
			lastErr = fmt.Errorf("all backends unreachable: node %s: %w", n.name, err)
			r.logf("router: %s %s on %s failed, trying next candidate: %v", method, target, n.name, err)
		default:
			rank, free := verdict(rep)
			if rank == 0 {
				return rep, nil
			}
			if rank > keptRank {
				kept, keptRank = rep, rank
			}
			if free {
				continue
			}
		}
		if spent++; spent <= r.opts.RetryBudget {
			n.retried()
		}
	}
	if keptRank > 0 {
		return kept, nil
	}
	return kept, lastErr
}

// writeWalked writes a walk's outcome to the client: the backend's answer
// passed through with the serving node stamped on X-Relm-Node, or, when no
// backend answered, 503 (there was none to ask) or 502 (none could be
// reached).
func writeWalked(w http.ResponseWriter, rep reply, err error) {
	switch {
	case errors.Is(err, errNoBackend):
		writeNoBackend(w)
	case err != nil:
		wire.WriteJSON(w, http.StatusBadGateway, map[string]any{"error": err.Error()})
	default:
		if ct := rep.hdr.Get("Content-Type"); ct != "" {
			w.Header().Set("Content-Type", ct)
		}
		// Keep the retriability marker: a replayed 503 without Retry-After
		// would look terminal to the client.
		if ra := rep.hdr.Get("Retry-After"); ra != "" {
			w.Header().Set("Retry-After", ra)
		}
		w.Header().Set("X-Relm-Node", rep.node.name)
		w.WriteHeader(rep.status)
		w.Write(rep.body)
	}
}

// writeNoBackend answers a request that found no node to serve it. Fan-outs
// use it too: an empty merge must read as "cluster unreachable", never as
// "cluster is empty" — monitoring that trusts a 200 [] would report a dead
// cluster as a quiet one.
func writeNoBackend(w http.ResponseWriter) {
	wire.WriteJSON(w, http.StatusServiceUnavailable, map[string]any{"error": errNoBackend.Error()})
}

// handleSession routes one /v1/sessions/{id}... request to the session's
// rendezvous owner — with a fallback walk. The owner is candidate 0, but a
// session can legitimately live on a lower candidate: it was placed while
// the owner was unhealthy or draining, and the owner has since recovered.
// So a 404 from the owner does not end the search — the remaining eligible
// candidates are tried in rendezvous order and the session is served from
// wherever it actually lives; only when every eligible node reports 404 is
// the session truly gone (and the owner's 404 is what the client sees).
// The walk costs extra hops only on 404s — the healthy path is one hop —
// and 404s spend no budget: the node answered fast, it just doesn't hold
// the session.
func (r *Router) handleSession(w http.ResponseWriter, req *http.Request) {
	var body []byte
	if req.Method == http.MethodPost {
		var ok bool
		if body, ok = readBody(w, req, maxBody); !ok {
			return
		}
	}
	rep, err := r.walk(req.Context(), r.nodes, req.PathValue("id"), r.opts.Timeout,
		req.Method, req.URL.RequestURI(), body, judgeSession)
	writeWalked(w, rep, err)
}

// maxBody is the largest session request body the router forwards.
const maxBody = 4 << 20

// readBody reads a body about to be forwarded, whole or not at all: one over
// limit is answered 413 before any backend is asked, never cut to size and
// passed on. It is never nil: a POST without one is forwarded with an empty one.
func readBody(w http.ResponseWriter, req *http.Request, limit int64) ([]byte, bool) {
	var buf bytes.Buffer
	var err error = &http.MaxBytesError{Limit: limit} // an announced length over the limit is not read
	if req.ContentLength <= limit {
		buf.Grow(int(max(req.ContentLength, 0)) + bytes.MinRead)
		_, err = buf.ReadFrom(http.MaxBytesReader(w, req.Body, limit))
	}
	if err != nil {
		code := http.StatusBadRequest
		if errors.As(err, new(*http.MaxBytesError)) {
			code = http.StatusRequestEntityTooLarge
		}
		wire.WriteJSON(w, code, map[string]any{"error": "read body: " + err.Error()})
	}
	return buf.Bytes(), err == nil
}

// handleCreate places a new session: it mints the session ID (honouring a
// client-supplied one) and injects it into the create body so the backend
// adopts it, then walks the ID's candidates — a create is not bound to any
// node until it succeeds somewhere, so an unreachable, draining or
// journal-degraded candidate simply passes it on. If every candidate
// refuses, replaying the first refusal (a retriable 503) beats a generic
// 502.
func (r *Router) handleCreate(w http.ResponseWriter, req *http.Request) {
	raw, ok := readBody(w, req, maxBody)
	if !ok {
		return
	}
	fields := make(map[string]any)
	if len(bytes.TrimSpace(raw)) > 0 {
		if err := json.Unmarshal(raw, &fields); err != nil {
			wire.WriteJSON(w, http.StatusBadRequest, map[string]any{"error": "bad request body: " + err.Error()})
			return
		}
	}
	id, _ := fields["id"].(string)
	if id == "" {
		id = mintID()
		fields["id"] = id
	}
	body, err := json.Marshal(fields)
	if err != nil {
		wire.WriteJSON(w, http.StatusBadRequest, map[string]any{"error": "encode body: " + err.Error()})
		return
	}
	rep, err := r.walk(req.Context(), r.nodes, id, r.opts.Timeout,
		http.MethodPost, "/v1/sessions", body, judgePlacement)
	writeWalked(w, rep, err)
}

// buildMux wires the routes, wrapped in the tracing middleware so every
// request carries a trace and lands in the recent-trace ring.
func (r *Router) buildMux() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sessions", r.handleCreate)
	mux.HandleFunc("GET /v1/sessions", r.handleList)
	mux.HandleFunc("GET /v1/sessions/{id}", r.handleSession)
	mux.HandleFunc("DELETE /v1/sessions/{id}", r.handleSession)
	mux.HandleFunc("GET /v1/sessions/{id}/history", r.handleSession)
	mux.HandleFunc("POST /v1/sessions/{id}/suggest", r.handleSession)
	mux.HandleFunc("POST /v1/sessions/{id}/observe", r.handleSession)
	mux.HandleFunc("GET /v1/metrics", r.handleMetrics)
	mux.Handle("GET /v1/traces", r.tracer.Handler("router"))
	mux.HandleFunc("GET /metrics", r.handleProm)
	mux.HandleFunc("GET /v1/repository", r.handleRepository)
	mux.HandleFunc("GET /v1/repository/export", r.handleRepoExport)
	mux.HandleFunc("POST /v1/repository/import", r.handleRepoImport)
	mux.HandleFunc("GET /v1/cluster", r.handleCluster)
	mux.HandleFunc("POST /v1/cluster/drain/{node}", r.handleDrain)
	mux.HandleFunc("GET /healthz", r.handleHealthz)
	// Fault-injection control for the router process itself (router.proxy
	// schedules, e.g. injected partitions between router and backends).
	mux.Handle("/v1/faults", fault.Handler())
	return r.tracer.Middleware(mux)
}

func (r *Router) handleCluster(w http.ResponseWriter, req *http.Request) {
	out := make([]NodeStatus, 0, len(r.nodes))
	for _, n := range r.nodes {
		out = append(out, n.snapshot())
	}
	resp := map[string]any{
		"nodes":            out,
		"promotions_total": r.promotions.Load(),
	}
	r.promoMu.Lock()
	if r.lastPromo != nil {
		resp["last_promotion"] = r.lastPromo
	}
	r.promoMu.Unlock()
	wire.WriteJSON(w, http.StatusOK, resp)
}

// handleHealthz answers 200 while at least one backend can take traffic,
// 503 otherwise — a load balancer in front of router replicas keys on it.
func (r *Router) handleHealthz(w http.ResponseWriter, req *http.Request) {
	healthy := len(r.eligibleNodes())
	code := http.StatusOK
	if healthy == 0 {
		code = http.StatusServiceUnavailable
	}
	wire.WriteJSON(w, code, map[string]any{
		"ok":      healthy > 0,
		"nodes":   len(r.nodes),
		"healthy": healthy,
	})
}
