// Package service turns the tuners into a long-lived tuning-as-a-service
// subsystem: a concurrent session Manager multiplexes many simultaneous
// tuning sessions — each one an incremental tune.Tuner driven step by step —
// across remote clients reporting real measurements and a worker pool
// running simulator-backed sessions for batch auto-tuning. Package
// service/http (http.go) exposes the Manager over a JSON API; cmd/relm-serve
// is the server binary.
//
// The session life cycle:
//
//	create (remote) → suggest → observe → … → done → close/evict
//	create (auto)   → queued  → running (worker pool) → done
//
// Two durable layers ride on an optional store.Store (persist.go):
//
//   - Session persistence: every state transition is journaled to a
//     write-ahead log with periodic compacted snapshots. Open folds the log
//     into the snapshot as data and rebuilds one tuner per session still
//     open at its end, so a restarted server resumes each with full history
//     and a tuner in its exact pre-crash state.
//   - Cross-session warm starts: completed sessions feed a shared
//     bo.Repository keyed by workload fingerprint (§6.6 model re-use), and
//     Create consults it to warm-start new BO/GBO sessions whose
//     fingerprint matches within a distance threshold.
//
// All Manager and Session methods are safe for concurrent use. The session
// map is striped across lock shards, so sessions on different shards never
// contend.
package service

import (
	"errors"
	"fmt"
	"hash/fnv"
	"log"
	"math"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"relm/internal/bo"
	"relm/internal/conf"
	"relm/internal/core"
	"relm/internal/ddpg"
	"relm/internal/fault"
	"relm/internal/gbo"
	"relm/internal/gp"
	"relm/internal/obs"
	"relm/internal/profile"
	"relm/internal/replica"
	"relm/internal/sim"
	"relm/internal/sim/cluster"
	"relm/internal/sim/workload"
	"relm/internal/store"
	"relm/internal/tune"
)

// Session states.
const (
	StateActive  = "active"  // remote session awaiting suggest/observe calls
	StateQueued  = "queued"  // auto session waiting for a worker
	StateRunning = "running" // auto session being driven by a worker
	StateDone    = "done"    // stopping rule fired
	StateFailed  = "failed"  // pipeline error (e.g. RelM infeasibility)
	StateClosed  = "closed"  // closed by the client or evicted by TTL
)

// Session modes.
const (
	ModeRemote = "remote" // the client measures configurations and reports back
	ModeAuto   = "auto"   // the worker pool drives the session on the simulator
)

// Errors surfaced by the Manager.
var (
	ErrNotFound    = errors.New("service: session not found")
	ErrClosed      = errors.New("service: session closed")
	ErrBusy        = errors.New("service: session queue full")
	ErrTooMany     = errors.New("service: session limit reached")
	ErrManagerDown = errors.New("service: manager closed")
	ErrExists      = errors.New("service: session ID already in use")
	ErrDraining    = errors.New("service: node draining, not accepting sessions")
	// ErrJournal wraps a WAL append failure on the durability path: the
	// operation was refused BEFORE mutating tuner state, so the client can
	// retry it (here after the fault clears, or on another node via the
	// router). HTTP maps it to 503 + Retry-After.
	ErrJournal = errors.New("service: journal append failed")
)

// fpObserve is the service-layer failpoint on the observe path, evaluated
// at the top of Manager.Observe — upstream of validation, journaling, and
// tuner mutation, so an injected failure is always cleanly retriable.
var fpObserve = fault.Register("service.observe")

// Options configures a Manager. Zero values select sensible defaults.
type Options struct {
	// TTL evicts sessions idle for longer than this (default 30 minutes).
	TTL time.Duration
	// Workers is the size of the auto-tuning worker pool (default 4).
	Workers int
	// MaxSessions bounds the number of live sessions (default 4096).
	MaxSessions int
	// Store, when non-nil, journals every session event to a write-ahead
	// log and persists the shared model repository. Open replays it on
	// startup; the Manager takes ownership and closes it on Close.
	Store store.Store
	// SnapshotEvery is how often, in journaled events, the node considers
	// compacting the log into a snapshot (default 1024); it does when the
	// log appended since the last one outweighs it (see snapshotter).
	// Ignored without a Store; Open refuses a negative one.
	SnapshotEvery int
	// WarmMaxDistance is the default fingerprint-distance threshold for
	// warm-start matching (default 0.25; per-session Spec overrides it;
	// Open refuses a negative one).
	// Re-profiles of one workload land within ~0.05 of each other;
	// different workload classes differ by 0.5 or more.
	WarmMaxDistance float64
	// RepoCapacity bounds the shared model repository (default 1024,
	// negative = unbounded): past it, the least-recently-matched entries
	// are evicted so fingerprint matching stays fast as the repository
	// grows. Harvested session IDs stay tombstoned, so an evicted entry is
	// never resurrected by log replay.
	RepoCapacity int
	// NodeID names this manager in a multi-node deployment. When set, it
	// prefixes generated session IDs ("<node>-sess-N", cluster-unique
	// without coordination) and is reported by /healthz, /v1/metrics, and
	// every session status, so a router can verify it is talking to the
	// node it thinks it is. Letters, digits, '.', '_', and '-' only.
	NodeID string
	// Advertise is the URL this node wants routers and operators to reach
	// it at; purely informational, surfaced by /healthz.
	Advertise string
	// Replica, when non-nil, is this node's WAL replication state (log
	// shipping out, replica ingest in — see internal/replica). NewHandler
	// exposes its /v1/replica endpoints and Metrics folds its lag and
	// ingest counters in. The Manager does not take ownership: the caller
	// that wired the Set to the store closes it.
	Replica *replica.Set
	// Obs is the per-stage latency registry. When nil the manager creates
	// one; pass a shared registry to fold in WAL and replica stages
	// recorded outside the manager.
	Obs *obs.Registry
	// SlowLog, when positive, logs any HTTP request slower than this
	// span-by-span (through SlowLogf, defaulting to log.Printf).
	SlowLog time.Duration
	// SlowLogf receives slow-request log lines (default log.Printf).
	SlowLogf func(format string, args ...any)
	// Now overrides the clock (tests).
	Now func() time.Time
	// noPool starts the manager without its worker pool, so a test drives
	// each auto session itself (drive).
	noPool bool
}

func (o *Options) fill() {
	if o.TTL == 0 {
		o.TTL = 30 * time.Minute
	}
	if o.Workers == 0 {
		o.Workers = 4
	}
	if o.MaxSessions == 0 {
		o.MaxSessions = 4096
	}
	if o.SnapshotEvery == 0 {
		o.SnapshotEvery = 1024
	}
	if o.WarmMaxDistance == 0 {
		o.WarmMaxDistance = 0.25
	}
	if o.RepoCapacity == 0 {
		o.RepoCapacity = 1024
	}
	if o.Obs == nil {
		o.Obs = obs.NewRegistry()
	}
	if o.SlowLogf == nil {
		o.SlowLogf = log.Printf
	}
	if o.Now == nil {
		o.Now = time.Now
	}
}

// Spec describes one tuning session to create — the store's record, so a
// create journals it uncopied.
type Spec = store.SessionSpec

// SurrogateStatus is the live surrogate picture of one BO/GBO session: its
// cumulative work counters. Doubles as the `surrogate` JSON object in
// session status responses.
type SurrogateStatus struct {
	// Fits counts full hyperparameter selections (grid + ARD, O(n³)).
	Fits int `json:"fits"`
	// Appends counts O(n²) incremental absorptions.
	Appends int `json:"appends"`
}

// Observation is one measured experiment reported to a session — the
// store's record, so it reaches the journal uncopied. GCOverhead and Stats
// are optional; RelM requires Stats, GBO and DDPG use them when present.
type Observation = store.Observation

// BestReport is the incumbent of a session.
type BestReport struct {
	Config     conf.Config
	RuntimeSec float64
	Objective  float64
}

// Status is a point-in-time snapshot of one session.
type Status struct {
	ID       string
	Node     string // the serving node's identity (empty single-node)
	Backend  string
	Workload string
	Cluster  string
	Mode     string
	State    string
	Evals    int
	Done     bool
	Best     *BestReport
	Err      string
	Created  time.Time
	LastUsed time.Time

	// WarmStarted reports whether the session was seeded from the model
	// repository; WarmSource and WarmDistance identify the matched entry.
	WarmStarted  bool
	WarmSource   string
	WarmDistance float64

	// Surrogate is the session's surrogate work counters (BO/GBO backends;
	// nil otherwise).
	Surrogate *SurrogateStatus
}

// HistoryEntry is one recorded experiment of a session — the store's
// record, so history moves between memory, snapshot and hand-over uncopied.
type HistoryEntry = store.HistoryRecord

// Session is one live tuning session. All fields behind mu.
type Session struct {
	mu sync.Mutex

	id    string
	spec  Spec
	tuner tune.Tuner
	space tune.Space

	history   []HistoryEntry
	obj       tune.Objectives // the paper's abort-penalty objective (§6.1)
	state     string
	err       error
	created   time.Time
	lastUsed  time.Time
	warm      *store.Warm // applied warm start, nil if none
	harvested bool        // session already fed the model repository
}

// surrogateStatser is implemented by the bo/gbo tuners: the session
// surrogate's cumulative work counters (full hyperparameter selections,
// incremental appends), surfaced through Metrics and session status.
type surrogateStatser interface {
	SurrogateInfo() gp.SurrogateStats
}

// shard is one lock stripe of the session map. closed maps tombstoned
// session IDs to the sequence number of their journaled close event (or
// tombstoneKept while the event is in flight / absent); compaction prunes
// a tombstone once the log no longer holds events that could resurrect
// the ID.
type shard struct {
	mu       sync.RWMutex
	sessions map[string]*Session
	closed   map[string]uint64
}

// tombstoneKept marks a tombstone that must survive every compaction:
// its close event is not (yet) known to be folded into a snapshot.
const tombstoneKept = ^uint64(0)

const (
	numShards = 16 // lock stripes of the session map
	// maxHistory bounds a session's history, auto or remote, and a
	// repository entry's points: an auto session stops there, and an
	// observe, import or adopt past it is refused. It guards against
	// non-terminating tuners and keeps a session's GP exact at bounded
	// cost, at most one prior entry and one history, each this long.
	maxHistory = 200
)

// checkBound refuses what, n points long, when n is past maxHistory.
func checkBound(what string, n int) error {
	if n > maxHistory {
		return fmt.Errorf("service: %s would hold %d points, more than the %d a session may", what, n, maxHistory)
	}
	return nil
}

// Manager multiplexes concurrent tuning sessions.
type Manager struct {
	opts Options

	shards   []*shard
	count    atomic.Int64  // live sessions (MaxSessions gate)
	nextID   atomic.Uint64 // session-ID counter
	closed   atomic.Bool
	draining atomic.Bool // Drain ran: Create rejects new sessions
	// life fences admission against Close: admit registers and journals a
	// session under the read lock, Close takes the write lock once after
	// flipping closed — so no create event can reach the store after Close
	// starts tearing it down (a journaled create with no tombstone would
	// resurrect a session its caller was told failed).
	life sync.RWMutex

	repoMu sync.Mutex
	repo   *bo.Repository
	// harvested maps IDs already in repo to their harvest event's seq, as
	// closed does tombstones (tombstoneKept for import keys and IDs whose
	// event is in flight or absent); compaction prunes it at the fence.
	harvested map[string]uint64

	evictions     atomic.Int64
	observations  atomic.Int64
	warmStarts    atomic.Int64
	repoHits      atomic.Int64
	repoEvictions atomic.Int64
	sinceSnap     atomic.Int64 // events journaled since the last compaction signal
	snapMu        sync.Mutex   // serializes whole Snapshot calls
	journalErr    atomic.Pointer[string]

	// Stage histograms, resolved once at construction so the hot path
	// never takes the registry lock.
	obsSuggest *obs.Histogram
	obsObserve *obs.Histogram
	obsCreate  *obs.Histogram
	tracer     *obs.Tracer

	jobs   chan *Session
	quit   chan struct{}
	snapCh chan struct{}
	wg     sync.WaitGroup
}

// Open starts a manager, restoring every session journaled in opts.Store:
// it loads the latest snapshot, folds the write-ahead log on top (see
// persist.go), rebuilds each still-open session's tuner by re-observing its
// history, and re-queues interrupted auto sessions on the worker pool. The
// Manager takes ownership of the Store and closes it on Close.
func Open(opts Options) (*Manager, error) {
	if opts.NodeID != "" && !validIdent(opts.NodeID) {
		return nil, fmt.Errorf("service: bad node ID %q (want letters, digits, '.', '_', '-')", opts.NodeID)
	}
	for _, o := range []struct {
		name string
		neg  bool
	}{
		{"TTL", opts.TTL < 0}, {"MaxSessions", opts.MaxSessions < 0}, {"Workers", opts.Workers < 0},
		{"SnapshotEvery", opts.SnapshotEvery < 0}, {"WarmMaxDistance", opts.WarmMaxDistance < 0},
	} {
		if o.neg {
			return nil, fmt.Errorf("service: negative option %s", o.name)
		}
	}
	m := newManager(opts)
	var autos []*Session
	if m.opts.Store != nil {
		snap, events, err := m.opts.Store.Load()
		if err != nil {
			return nil, err
		}
		autos, err = m.restore(snap, events)
		if err != nil {
			return nil, err
		}
		// A log already past the threshold is weighed as soon as the
		// snapshotter starts instead of waiting for SnapshotEvery more.
		m.sinceSnap.Store(int64(len(events)))
		if len(events) >= m.opts.SnapshotEvery {
			m.snapCh <- struct{}{}
		}
	}
	m.start(autos)
	return m, nil
}

// newManager builds the Manager shell: shards, repository, channels — no
// goroutines and no recovery. Open composes it with restore and start.
func newManager(opts Options) *Manager {
	opts.fill()
	m := &Manager{
		opts:      opts,
		shards:    make([]*shard, numShards),
		repo:      &bo.Repository{},
		harvested: make(map[string]uint64),
		quit:      make(chan struct{}),
		snapCh:    make(chan struct{}, 1),
	}
	for i := range m.shards {
		m.shards[i] = &shard{sessions: make(map[string]*Session), closed: make(map[string]uint64)}
	}
	m.obsSuggest = m.opts.Obs.Histogram("service.suggest")
	m.obsObserve = m.opts.Obs.Histogram("service.observe")
	m.obsCreate = m.opts.Obs.Histogram("service.create")
	node := m.opts.NodeID
	if node == "" {
		node = "serve"
	}
	m.tracer = obs.NewTracer(node, m.opts.SlowLog, m.opts.SlowLogf)
	return m
}

// start launches the worker pool, janitor, and snapshotter, then re-queues
// restored auto sessions.
func (m *Manager) start(autos []*Session) {
	opts := m.opts
	jobsCap := 256
	if n := len(autos) + opts.Workers; n > jobsCap {
		jobsCap = n
	}
	m.jobs = make(chan *Session, jobsCap)

	for i := 0; i < opts.Workers && !opts.noPool; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	m.wg.Add(1)
	go m.janitor()
	if opts.Store != nil {
		m.wg.Add(1)
		go m.snapshotter()
	}
	for _, s := range autos {
		m.jobs <- s
	}
}

// Close stops the worker pool and janitor, takes a final snapshot (so a
// later Open restores instantly, without replaying the log), closes the
// store, and closes every in-memory session.
func (m *Manager) Close() {
	if !m.closed.CompareAndSwap(false, true) {
		return
	}
	// Barrier: wait out in-flight Creates so every journaled create is
	// either visible to the final snapshot or rolled back with a tombstone
	// before the store closes.
	m.life.Lock()
	m.life.Unlock() //nolint:staticcheck // empty critical section is the barrier
	close(m.quit)
	m.wg.Wait()

	// Snapshot with live states — shutdown is not session close; a
	// restarted manager resumes these sessions.
	if m.opts.Store != nil {
		_ = m.Snapshot()
		_ = m.opts.Store.Close()
	}

	for _, s := range m.sessionList() {
		s.mu.Lock()
		s.state = StateClosed
		s.mu.Unlock()
	}
}

// sessionList snapshots the live sessions of every shard.
func (m *Manager) sessionList() []*Session {
	var sessions []*Session
	for _, sh := range m.shards {
		sh.mu.RLock()
		for _, s := range sh.sessions {
			sessions = append(sessions, s)
		}
		sh.mu.RUnlock()
	}
	return sessions
}

// shardFor maps a session ID onto its lock stripe.
func (m *Manager) shardFor(id string) *shard {
	h := fnv.New32a()
	h.Write([]byte(id))
	return m.shards[h.Sum32()%uint32(len(m.shards))]
}

// sessionID renders the n-th counter-assigned session ID, namespaced by the
// node identity so IDs from different nodes never collide in a cluster.
func (m *Manager) sessionID(n uint64) string {
	if m.opts.NodeID != "" {
		return fmt.Sprintf("%s-sess-%d", m.opts.NodeID, n)
	}
	return fmt.Sprintf("sess-%d", n)
}

// sessionNum parses the counter of an ID in this manager's namespace; false
// for foreign IDs (other nodes' prefixes, router-minted IDs).
func (m *Manager) sessionNum(id string) (uint64, bool) {
	if m.opts.NodeID != "" {
		rest, ok := strings.CutPrefix(id, m.opts.NodeID+"-")
		if !ok {
			return 0, false
		}
		id = rest
	}
	return sessionNum(id)
}

// validIdent reports whether s is a legal node or session identifier:
// letters, digits, '.', '_', and '-', at most 128 bytes.
func validIdent(s string) bool {
	if s == "" || len(s) > 128 {
		return false
	}
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '_', r == '-':
		default:
			return false
		}
	}
	return true
}

// resolve maps a Spec's symbolic names onto concrete cluster, workload, and
// tuner instances.
func resolve(spec Spec) (cluster.Spec, workload.Spec, error) {
	cl, ok := cluster.ByName(spec.Cluster)
	if !ok {
		return cluster.Spec{}, workload.Spec{}, fmt.Errorf("service: unknown cluster %q (want A or B)", spec.Cluster)
	}
	name := spec.Workload
	if name == "" {
		name = "PageRank"
	}
	wl, ok := workload.ByName(name)
	if !ok {
		return cluster.Spec{}, workload.Spec{}, fmt.Errorf("service: unknown workload %q", name)
	}
	return cl, wl, nil
}

// newTuner builds the incremental tuner for a session spec, wiring the
// manager's surrogate/acquisition histograms into BO-family backends.
func (m *Manager) newTuner(spec Spec, cl cluster.Spec, sp tune.Space) (tune.Tuner, error) {
	boOpts := bo.Options{
		Seed:                spec.Seed,
		MaxIterations:       spec.MaxIterations,
		SurrogateAppendHist: m.opts.Obs.Histogram("surrogate.append"),
		SurrogateRefitHist:  m.opts.Obs.Histogram("surrogate.refit"),
		AcquisitionHist:     m.opts.Obs.Histogram("acquisition"),
	}
	switch strings.ToLower(spec.Backend) {
	case "", "relm":
		return core.New(cl).Incremental(sp), nil
	case "bo":
		return bo.NewTuner(sp, boOpts, nil, nil), nil
	case "gbo":
		return gbo.NewTuner(cl, sp, boOpts), nil
	case "ddpg":
		return ddpg.NewTuner(cl, sp, nil, ddpg.TuneOptions{MaxSteps: spec.MaxSteps, Seed: spec.Seed}), nil
	default:
		return nil, fmt.Errorf("service: unknown backend %q (want relm, bo, gbo, or ddpg)", spec.Backend)
	}
}

// warmStarter is implemented by tuners that accept repository priors
// (bo.Tuner and gbo.Tuner).
type warmStarter interface {
	WarmStart([]bo.PriorPoint)
}

// warmStart is the served §6.6 protocol, written once for create (a
// client-supplied fingerprint) and drive (an auto session's fingerprinting
// run): match the repository for a same-cluster entry within the session's
// distance threshold, seed the tuner with its observations rescaled to
// defaultSec, and count the hit. It asks whether the backend takes priors
// (relm and ddpg do not) before it touches the repository, so only a warm
// start that happens bumps a hit counter or refreshes an entry's LRU stamp.
// The caller journals s.warm, and counts it once the record is durable.
// Callers hold s.mu or own s exclusively.
func (m *Manager) warmStart(s *Session, fp profile.Stats, defaultSec float64) bool {
	ws, ok := s.tuner.(warmStarter)
	if !ok {
		return false
	}
	maxDistance := s.spec.WarmMaxDistance
	if maxDistance <= 0 {
		maxDistance = m.opts.WarmMaxDistance
	}
	m.repoMu.Lock()
	entry, d, ok := m.repo.Match(s.space.Cluster.Name, fp, maxDistance)
	if !ok {
		m.repoMu.Unlock()
		return false
	}
	entry.Touch(m.opts.Now())
	s.warm = &store.Warm{
		Source:   entry.Workload,
		Cluster:  entry.ClusterName,
		Distance: d,
		Points:   entry.RescaledPoints(defaultSec),
	}
	m.repoMu.Unlock()
	m.repoHits.Add(1)
	ws.WarmStart(s.warm.Points)
	return true
}

// Create opens a new session and, in auto mode, enqueues it on the worker
// pool.
func (m *Manager) Create(spec Spec) (Status, error) {
	defer func(start time.Time) { m.obsCreate.Record(time.Since(start)) }(time.Now())
	if spec.ID != "" {
		if err := m.checkID(spec.ID); err != nil {
			return Status{}, err
		}
	}
	s, err := m.buildSession(spec.ID, spec, m.opts.Now())
	if err != nil {
		return Status{}, err
	}
	// Warm start with a client-supplied fingerprint: match before the
	// session becomes visible, so its first suggestion is already the
	// transferred optimum. Auto sessions without a fingerprint profile the
	// default configuration in the worker instead (drive).
	if spec.WarmStart && spec.Stats != nil {
		m.warmStart(s, *spec.Stats, spec.DefaultRuntimeSec)
	}
	return m.admit(s)
}

// admit is the one way a session enters the manager, created or adopted:
// registered, then journaled as one create record carrying
// sessionSnapshot(s), so recovery brings back all the ack reports or
// nothing. s.mu is held from before the session becomes visible until the
// record is durable: a client call that finds it waits, and journals after
// it. (Taking a shard lock under s.mu inverts the usual order, safely:
// until register returns nobody else can reach s; s.mu is released before
// a shard lock is taken again.) A refused append takes s back out without
// a tombstone, so the ID stays free for a retry; a logged auto session the
// full worker queue refuses is closed.
func (m *Manager) admit(s *Session) (Status, error) {
	m.life.RLock()
	defer m.life.RUnlock()
	s.mu.Lock()
	if err := m.register(s); err != nil {
		s.mu.Unlock()
		return Status{}, err
	}
	ss := sessionSnapshot(s)
	if _, err := m.journal(&store.Event{Type: store.EventCreate, ID: s.id, Time: s.created, Session: &ss}); err != nil {
		s.state = StateClosed
		s.mu.Unlock()
		sh := m.shardFor(s.id)
		sh.mu.Lock()
		if sh.sessions[s.id] == s { // not closed meanwhile
			delete(sh.sessions, s.id)
			m.count.Add(-1)
		}
		sh.mu.Unlock()
		return Status{}, fmt.Errorf("%w: %w", ErrJournal, err)
	}
	if m.settle(s) {
		select {
		case m.jobs <- s:
		default:
			s.mu.Unlock()
			_ = m.CloseSession(s.id) // only an ID never issued is ErrNotFound
			return Status{}, ErrBusy
		}
	}
	defer s.mu.Unlock()
	if s.warm != nil {
		m.warmStarts.Add(1)
	}
	m.observations.Add(int64(len(s.history)))
	return m.statusLocked(s), nil
}

// checkID vets a caller-assigned session ID (a router placing sessions by
// consistent hash, or a hand-over from another node): the legal character
// set, and outside this manager's own counter namespace. That namespace is
// reserved outright: an ID the counter already issued may have had its
// tombstone pruned by compaction, and an ID it has not issued yet would
// collide with a concurrent counter-assigned create the moment the counter
// catches up.
func (m *Manager) checkID(id string) error {
	if !validIdent(id) {
		return fmt.Errorf("service: bad session ID %q (want letters, digits, '.', '_', '-')", id)
	}
	if num, ok := m.sessionNum(id); ok && id == m.sessionID(num) {
		return fmt.Errorf("service: bad session ID %q (the counter namespace %q is reserved)", id, m.sessionID(0))
	}
	return nil
}

// register makes a built session visible, through the gates every new
// session passes whichever way it arrives (Create, Adopt): manager open,
// not draining, under MaxSessions, and an ID this manager has never seen —
// a duplicate would either shadow a live session or resurrect a closed
// one. A session without an ID takes the next counter value. Its caller,
// admit, holds m.life.RLock and, on success, journals the session or takes
// it back out.
func (m *Manager) register(s *Session) error {
	if m.closed.Load() {
		return ErrManagerDown
	}
	if m.draining.Load() {
		return ErrDraining
	}
	if m.count.Add(1) > int64(m.opts.MaxSessions) {
		m.count.Add(-1)
		return ErrTooMany
	}
	if s.id == "" {
		s.id = m.sessionID(m.nextID.Add(1))
	}
	sh := m.shardFor(s.id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	_, live := sh.sessions[s.id]
	_, dead := sh.closed[s.id]
	if live || dead {
		m.count.Add(-1)
		return fmt.Errorf("%w: %s", ErrExists, s.id)
	}
	sh.sessions[s.id] = s
	return nil
}

// removeLocked is every removal of a live session — closed, evicted,
// handed over or refused by a full queue: it leaves a tombstone, kept until
// the close event's sequence number is known (journalClose). Callers hold
// sh.mu.
func (m *Manager) removeLocked(sh *shard, id string) {
	delete(sh.sessions, id)
	sh.closed[id] = tombstoneKept
	m.count.Add(-1)
}

// get looks a live session up.
func (m *Manager) get(id string) (*Session, error) {
	sh := m.shardFor(id)
	sh.mu.RLock()
	s, ok := sh.sessions[id]
	sh.mu.RUnlock()
	if !ok {
		return nil, ErrNotFound
	}
	return s, nil
}

// Suggest returns the session's next configuration to measure and whether
// the session's stopping rule has fired.
func (m *Manager) Suggest(id string) (conf.Config, bool, error) {
	start := time.Now()
	s, err := m.get(id)
	if err != nil {
		return conf.Config{}, false, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state == StateClosed {
		return conf.Config{}, false, ErrClosed
	}
	s.lastUsed = m.opts.Now()
	cfg := s.tuner.Suggest()
	m.obsSuggest.Record(time.Since(start))
	return cfg, s.tuner.Done(), nil
}

// Observe reports one measured experiment to the session and returns its
// refreshed status. One past maxHistory is refused and journals nothing.
func (m *Manager) Observe(id string, obs Observation) (Status, error) {
	start := time.Now()
	s, err := m.get(id)
	if err != nil {
		return Status{}, err
	}
	if fp := fpObserve.Eval(); fp != nil {
		switch fp.Action {
		case fault.Latency, fault.Stall:
			fp.Sleep()
		default:
			// Nothing has been journaled or mutated: the injected failure
			// is retriable by construction.
			return Status{}, fmt.Errorf("service: observe: %w", fp.Err)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state == StateClosed {
		return Status{}, ErrClosed
	}
	if err := obs.Config.Validate(); err != nil {
		return Status{}, fmt.Errorf("service: invalid observed configuration: %w", err)
	}
	if !(obs.RuntimeSec > 0) || math.IsInf(obs.RuntimeSec, 0) {
		// Zero, negative, NaN, or infinite runtimes would corrupt the
		// incumbent, the surrogate, and the stopping rule.
		return Status{}, fmt.Errorf("service: runtime_sec must be a positive finite number, got %v", obs.RuntimeSec)
	}
	if err := checkBound("session "+id, len(s.history)+1); err != nil {
		return Status{}, err
	}

	if err := m.observeLocked(s, obs, nil); err != nil {
		return Status{}, err
	}
	s.lastUsed = m.opts.Now()
	m.refreshStateLocked(s)
	st := m.statusLocked(s)
	m.obsObserve.Record(time.Since(start))
	return st, nil
}

// Get returns a session's status snapshot.
func (m *Manager) Get(id string) (Status, error) {
	s, err := m.get(id)
	if err != nil {
		return Status{}, err
	}
	return m.statusOf(s), nil
}

// History returns the session's recorded experiments.
func (m *Manager) History(id string) ([]HistoryEntry, error) {
	s, err := m.get(id)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]HistoryEntry(nil), s.history...), nil
}

// CloseSession closes a session, removes it from the store, and journals a
// tombstone so replay does not resurrect it. Closing an already-closed
// session is a no-op; only a session the manager has never seen reports
// ErrNotFound. A worker currently driving the session notices the state
// flip and abandons it.
func (m *Manager) CloseSession(id string) error {
	sh := m.shardFor(id)
	sh.mu.Lock()
	s, ok := sh.sessions[id]
	if ok {
		m.removeLocked(sh, id)
	} else if _, was := sh.closed[id]; was {
		sh.mu.Unlock()
		return nil // idempotent: already closed or evicted
	}
	sh.mu.Unlock()
	if !ok {
		// Tombstones are pruned once compaction makes them unnecessary, so
		// an absent entry does not mean the ID is foreign: every ID this
		// manager lineage has issued (persisted via NextID) that is no
		// longer live must have been closed or evicted — stay idempotent
		// for those, and report ErrNotFound only for IDs never issued.
		if num, ok := m.sessionNum(id); ok && num > 0 && num <= m.nextID.Load() &&
			id == m.sessionID(num) { // canonical form only: "sess-007" was never issued
			return nil
		}
		return ErrNotFound
	}
	s.mu.Lock()
	s.state = StateClosed
	s.mu.Unlock()
	// Journaled after the state flip: any in-flight observe either
	// journaled before the flip (under s.mu) or sees the closed state, so
	// the tombstone is always the session's last event in the log.
	m.journalClose(id, m.opts.Now())
	return nil
}

// List returns a status snapshot of every live session.
func (m *Manager) List() []Status {
	sessions := m.sessionList()
	out := make([]Status, 0, len(sessions))
	for _, s := range sessions {
		out = append(out, m.statusOf(s))
	}
	return out
}

// Len returns the number of live sessions.
func (m *Manager) Len() int {
	n := 0
	for _, sh := range m.shards {
		sh.mu.RLock()
		n += len(sh.sessions)
		sh.mu.RUnlock()
	}
	return n
}

// Sweep evicts sessions idle past the TTL, journaling a tombstone for each
// so replay does not resurrect them, and returns how many it removed. The
// janitor calls it periodically; tests call it directly.
func (m *Manager) Sweep() int {
	now := m.opts.Now()
	var evict []*Session
	for _, sh := range m.shards {
		sh.mu.Lock()
		for id, s := range sh.sessions {
			s.mu.Lock()
			idle := now.Sub(s.lastUsed) > m.opts.TTL
			s.mu.Unlock()
			if idle {
				evict = append(evict, s)
				m.removeLocked(sh, id)
			}
		}
		sh.mu.Unlock()
	}
	for _, s := range evict {
		m.evictions.Add(1)
		s.mu.Lock()
		s.state = StateClosed
		s.mu.Unlock()
		m.journalClose(s.id, now)
	}
	return len(evict)
}

// Draining reports whether Drain has run.
func (m *Manager) Draining() bool { return m.draining.Load() }

// NodeID returns the manager's node identity (empty single-node).
func (m *Manager) NodeID() string { return m.opts.NodeID }

// Advertise returns the URL the node asks routers to reach it at.
func (m *Manager) Advertise() string { return m.opts.Advertise }

// ImportRepository merges foreign model-repository entries (another node's
// Drain export) into this manager's repository, journaling each new entry
// before adding it, so every entry it reports added survives restarts. Its
// harvest record carries the entry, which — unlike a local harvest's —
// exists nowhere else in the log.
// Entries already present — matched by workload, cluster, fingerprint,
// default runtime, and size — are skipped, so imports are idempotent and a
// mesh of nodes cross-importing converges. Returns how many entries were
// added; on a refused append it stops there with ErrJournal, and a retry of
// the whole import completes it. A body with any entry longer than
// maxHistory points is refused whole, before anything is journaled.
func (m *Manager) ImportRepository(entries []bo.RepoEntry) (int, error) {
	for i := range entries {
		if err := checkBound(fmt.Sprintf("model %d (%s)", i, entries[i].Workload), len(entries[i].Points)); err != nil {
			return 0, err
		}
	}
	added := 0
	now := m.opts.Now()
	for i := range entries {
		e := entries[i]
		key := importKey(&e)
		m.repoMu.Lock()
		if _, ok := m.harvested[key]; ok {
			m.repoMu.Unlock()
			continue
		}
		dup := false
		for j := range m.repo.Entries {
			if importKey(&m.repo.Entries[j]) == key {
				dup = true
				break
			}
		}
		if dup {
			// A locally-harvested twin: remember the key so replays of the
			// import journal stay no-ops, but add nothing.
			m.harvested[key] = tombstoneKept
			m.repoMu.Unlock()
			continue
		}
		// Under repoMu: a concurrent import of the entry waits for this one.
		if _, err := m.journal(&store.Event{Type: store.EventHarvest, ID: key, Time: now, Repo: &e}); err != nil {
			m.repoMu.Unlock()
			return added, fmt.Errorf("%w: %w", ErrJournal, err)
		}
		m.repo.Entries = append(m.repo.Entries, e)
		m.harvested[key] = tombstoneKept
		m.repoEvictions.Add(int64(len(m.repo.EvictDown(m.opts.RepoCapacity))))
		m.repoMu.Unlock()
		added++
	}
	return added, nil
}

// importKey derives the stable identity of a repository entry for import
// deduplication; it doubles as the journal ID of imported harvest events.
func importKey(e *bo.RepoEntry) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%s|%.9g|%d", e.Workload, e.ClusterName, e.DefaultSec, len(e.Points))
	for _, v := range bo.FingerprintVector(e.Fingerprint) {
		fmt.Fprintf(h, "|%.9g", v)
	}
	return fmt.Sprintf("import-%016x", h.Sum64())
}

// harvestSeq is the seq m.harvested keeps id at, given its event's: an
// import key (importKey) is kept for good.
func harvestSeq(id string, seq uint64) uint64 {
	if strings.HasPrefix(id, "import-") {
		return tombstoneKept
	}
	return seq
}

// Metrics is the service's observability snapshot.
type Metrics struct {
	// Node is the manager's identity in a multi-node deployment (empty
	// single-node); Draining reports whether Drain has taken it out of
	// service.
	Node     string
	Draining bool
	// Sessions is the number of live sessions; SessionsByState breaks
	// them down (active/queued/running/done/failed).
	Sessions        int
	SessionsByState map[string]int
	// Observations counts every recorded experiment, including replayed
	// ones; Evictions counts TTL evictions (carried across restarts);
	// WarmStarts counts repository-seeded sessions.
	Observations int64
	Evictions    int64
	WarmStarts   int64
	// SurrogateFits / SurrogateAppends aggregate the live sessions'
	// surrogate work: full hyperparameter grid selections (O(n³) per grid
	// cell) vs incremental O(n²) appends. A healthy steady state appends
	// far more than it fits.
	SurrogateFits    int64
	SurrogateAppends int64
	// RepoEntries is the size of the shared model repository; RepoCapacity
	// is its eviction bound (<= 0 unbounded). RepoHits counts warm-start
	// matches served; RepoEvictions counts entries evicted past capacity
	// (both carried across restarts).
	RepoEntries   int
	RepoCapacity  int
	RepoHits      int64
	RepoEvictions int64
	// Persistence reports whether a store is attached; Store carries its
	// WAL size, segmentation, group-commit, and compaction counters.
	// JournalError is the most recent journaling failure, if any.
	Persistence  bool
	Store        store.Metrics
	JournalError string
	// Replication reports whether a replica.Set is attached; Replica
	// carries its shipping lag and ingest counters.
	Replication bool
	Replica     replica.Stats
	// Stages holds the per-stage latency snapshots (service.suggest,
	// wal.append, surrogate.refit, …).
	Stages map[string]obs.Snapshot
}

// Metrics reports the service's observability counters.
func (m *Manager) Metrics() Metrics {
	mt := Metrics{
		Node:            m.opts.NodeID,
		Draining:        m.draining.Load(),
		SessionsByState: make(map[string]int),
		Observations:    m.observations.Load(),
		Evictions:       m.evictions.Load(),
		WarmStarts:      m.warmStarts.Load(),
		RepoCapacity:    m.opts.RepoCapacity,
		RepoHits:        m.repoHits.Load(),
		RepoEvictions:   m.repoEvictions.Load(),
	}
	for _, s := range m.sessionList() {
		s.mu.Lock()
		state := s.state
		if ss, ok := s.tuner.(surrogateStatser); ok {
			st := ss.SurrogateInfo()
			mt.SurrogateFits += int64(st.Fits)
			mt.SurrogateAppends += int64(st.Appends)
		}
		s.mu.Unlock()
		mt.Sessions++
		mt.SessionsByState[state]++
	}
	m.repoMu.Lock()
	mt.RepoEntries = len(m.repo.Entries)
	m.repoMu.Unlock()
	if m.opts.Store != nil {
		mt.Persistence = true
		mt.Store = m.opts.Store.Metrics()
	}
	if m.opts.Replica != nil {
		mt.Replication = true
		mt.Replica = m.opts.Replica.Stats()
	}
	if p := m.journalErr.Load(); p != nil {
		mt.JournalError = *p
	}
	mt.Stages = m.opts.Obs.Snapshots()
	return mt
}

// StoreDegraded reports whether the attached store's WAL has flipped
// read-only (see store.ErrDegraded), and the first failure that tripped
// it. Cheap enough to sit on the healthz path.
func (m *Manager) StoreDegraded() (string, bool) {
	if m.opts.Store == nil {
		return "", false
	}
	mt := m.opts.Store.Metrics()
	return mt.DegradedReason, mt.Degraded
}

// Tracer returns the manager's request tracer; NewHandler wraps the API
// mux in its middleware.
func (m *Manager) Tracer() *obs.Tracer { return m.tracer }

// ReplicaSet returns the node's replication state (nil when replication
// is not configured).
func (m *Manager) ReplicaSet() *replica.Set { return m.opts.Replica }

// Repository returns a point-in-time copy of the shared model repository.
func (m *Manager) Repository() bo.Repository {
	m.repoMu.Lock()
	defer m.repoMu.Unlock()
	return bo.Repository{Entries: append([]bo.RepoEntry(nil), m.repo.Entries...)}
}

// RepoEntryInfo is the inspection view of one repository entry: provenance,
// fingerprint coordinates, and lifecycle counters — everything except the
// prior points themselves, which can be large.
type RepoEntryInfo struct {
	Workload    string    `json:"workload"`
	Cluster     string    `json:"cluster"`
	Fingerprint []float64 `json:"fingerprint"`
	DefaultSec  float64   `json:"default_sec,omitempty"`
	Points      int       `json:"points"`
	Hits        uint64    `json:"hits"`
	AddedAt     time.Time `json:"added_at,omitzero"`
	LastUsed    time.Time `json:"last_used,omitzero"`
}

// RepositoryReport is the point-in-time inspection snapshot of the model
// repository and the body of GET /v1/repository. Size is len(Entries),
// spelled out for the wire.
type RepositoryReport struct {
	Size      int             `json:"entries"`
	Capacity  int             `json:"capacity,omitempty"`
	Hits      int64           `json:"hits"`
	Evictions int64           `json:"evictions"`
	Entries   []RepoEntryInfo `json:"models"`
}

// RepositoryReport summarizes the shared model repository for inspection.
func (m *Manager) RepositoryReport() RepositoryReport {
	rep := RepositoryReport{
		Capacity:  m.opts.RepoCapacity,
		Hits:      m.repoHits.Load(),
		Evictions: m.repoEvictions.Load(),
	}
	m.repoMu.Lock()
	defer m.repoMu.Unlock()
	rep.Size = len(m.repo.Entries)
	rep.Entries = make([]RepoEntryInfo, 0, rep.Size)
	for i := range m.repo.Entries {
		e := &m.repo.Entries[i]
		rep.Entries = append(rep.Entries, RepoEntryInfo{
			Workload:    e.Workload,
			Cluster:     e.ClusterName,
			Fingerprint: bo.FingerprintVector(e.Fingerprint),
			DefaultSec:  e.DefaultSec,
			Points:      len(e.Points),
			Hits:        e.Hits,
			AddedAt:     e.AddedAt,
			LastUsed:    e.LastUsed,
		})
	}
	return rep
}

// --- internals -------------------------------------------------------------

// observeLocked journals one observation and then feeds it to the session.
// Journal-before-apply: the observe event must be durable before any state
// the ack exposes is mutated, so on an append failure the tuner, history
// and abort-penalty watermark are untouched and the caller surfaces a
// retriable ErrJournal — the client retries the identical observation (here
// once the fault clears, or on the promoted replica via the router) without
// the tuner ever double-counting it. warm, the match a fingerprinting run
// just applied, rides on the record and is durable with it. Callers hold
// s.mu.
func (m *Manager) observeLocked(s *Session, rec store.Observation, warm *store.Warm) error {
	if _, err := m.journal(&store.Event{
		Type: store.EventObserve,
		ID:   s.id,
		Time: m.opts.Now(),
		N:    len(s.history),
		Obs:  &rec,
		Warm: warm,
	}); err != nil {
		return fmt.Errorf("%w: %w", ErrJournal, err)
	}
	if warm != nil {
		m.warmStarts.Add(1)
	}
	s.observe(rec)
	m.observations.Add(1)
	return nil
}

// simObservation runs one experiment of an auto session on the simulator
// and records it, its Table 6 statistics derived from the run's profile.
func simObservation(cl cluster.Spec, wl workload.Spec, cfg conf.Config, seed uint64) store.Observation {
	res, prof := sim.Run(cl, wl, cfg, seed)
	st := profile.Generate(prof)
	return store.Observation{Config: cfg, RuntimeSec: res.RuntimeSec, Aborted: res.Aborted, GCOverhead: res.GCOverhead, Stats: &st}
}

// refreshStateLocked moves a non-terminal session to done/failed once its
// tuner stops, harvesting completed sessions into the model repository.
// Callers hold s.mu.
func (m *Manager) refreshStateLocked(s *Session) {
	if s.state == StateClosed || s.state == StateFailed {
		return
	}
	if !s.tuner.Done() {
		return
	}
	if inc, ok := s.tuner.(*core.Incremental); ok && inc.Err() != nil {
		s.state, s.err = StateFailed, inc.Err()
		return
	}
	s.state = StateDone
	m.harvestLocked(s)
}

// harvestLocked feeds a completed session into the shared model repository
// (§6.6) and journals that it did. The record says when, not what: the
// entry is repoEntry of the session's spec and history, and replay
// (foldEvent) derives it again from the history the log holds before the
// record — every observe of the session journaled before this call is in
// it, every later one comes after the record. Callers hold s.mu.
func (m *Manager) harvestLocked(s *Session) {
	if s.harvested {
		return
	}
	now := m.opts.Now()
	entry, ok := repoEntry(s.spec, s.history, now)
	if !ok {
		return
	}
	s.harvested = true
	// Journaled under repoMu, as an import is, so the log holds harvests in
	// the order the repository does: replay rebuilds it in record order.
	// The record is advisory — a failed append still adds the entry, and
	// its ID stays kept.
	m.repoMu.Lock()
	defer m.repoMu.Unlock()
	seq, err := m.journal(&store.Event{Type: store.EventHarvest, ID: s.id, Time: now})
	if err != nil || seq == 0 {
		seq = tombstoneKept
	}
	m.repo.Entries = append(m.repo.Entries, entry)
	if m.opts.Store != nil { // without one no log is ever folded back
		m.harvested[s.id] = seq
	}
	// Capacity eviction: drop the least-recently-matched entries. Their
	// session IDs stay in m.harvested until a compaction's fence covers the
	// harvest event, so replay cannot resurrect them.
	m.repoEvictions.Add(int64(len(m.repo.EvictDown(m.opts.RepoCapacity))))
}

// repoEntry derives the repository entry a session's history stands for,
// added at now: its workload fingerprint and the runtime of the run it was
// measured on, plus every observation as a prior point. The fingerprint is
// the client-supplied default-run statistics, else a default-configuration
// experiment from the history (the §6.6 protocol — warm-start-enabled auto
// sessions always run one), else the first profiled experiment as an
// approximation. It reads nothing but its arguments, so a live harvest and
// a replayed one build the same entry. It reports false when there is
// nothing to harvest: no history, no statistics, or a spec this build
// cannot resolve.
func repoEntry(spec Spec, history []HistoryEntry, now time.Time) (bo.RepoEntry, bool) {
	cl, wl, err := resolve(spec)
	if err != nil || len(history) == 0 {
		return bo.RepoEntry{}, false
	}
	sp := tune.NewSpace(cl, wl)
	e := bo.RepoEntry{Workload: wl.Name, ClusterName: cl.Name, AddedAt: now, LastUsed: now}
	if spec.Stats != nil {
		e.Fingerprint, e.DefaultSec = *spec.Stats, spec.DefaultRuntimeSec
		if e.DefaultSec <= 0 {
			e.DefaultSec = history[0].RuntimeSec
		}
	} else {
		def := sp.Default()
		i := slices.IndexFunc(history, func(h HistoryEntry) bool { return h.Stats != nil && h.Config == def })
		if i < 0 {
			i = slices.IndexFunc(history, func(h HistoryEntry) bool { return h.Stats != nil })
		}
		if i < 0 {
			return bo.RepoEntry{}, false
		}
		e.Fingerprint, e.DefaultSec = *history[i].Stats, history[i].RuntimeSec
	}
	e.Points = make([]bo.PriorPoint, len(history))
	for i, h := range history {
		e.Points[i] = bo.PriorPoint{X: sp.Encode(h.Config), Cfg: h.Config, Y: h.Objective}
	}
	return e, true
}

func (m *Manager) statusOf(s *Session) Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	return m.statusLocked(s)
}

func (m *Manager) statusLocked(s *Session) Status {
	st := Status{
		ID:       s.id,
		Node:     m.opts.NodeID,
		Backend:  s.spec.Backend,
		Workload: s.spec.Workload,
		Cluster:  s.spec.Cluster,
		Mode:     s.spec.Mode,
		State:    s.state,
		Evals:    len(s.history),
		Done:     s.tuner.Done(),
		Created:  s.created,
		LastUsed: s.lastUsed,
	}
	if st.Backend == "" {
		st.Backend = "relm"
	}
	if st.Workload == "" {
		st.Workload = "PageRank"
	}
	if st.Cluster == "" {
		st.Cluster = "A"
	}
	if best, ok := s.tuner.Best(); ok {
		st.Best = &BestReport{Config: best.Config, RuntimeSec: best.RuntimeSec, Objective: best.Objective}
	}
	if s.err != nil {
		st.Err = s.err.Error()
	}
	if s.warm != nil {
		st.WarmStarted = true
		st.WarmSource = s.warm.Source
		st.WarmDistance = s.warm.Distance
	}
	if ss, ok := s.tuner.(surrogateStatser); ok {
		info := ss.SurrogateInfo()
		st.Surrogate = &SurrogateStatus{Fits: info.Fits, Appends: info.Appends}
	}
	return st
}

// worker drains the auto-tuning queue, driving each simulator-backed
// session's suggest/observe loop to completion.
func (m *Manager) worker() {
	defer m.wg.Done()
	for {
		select {
		case <-m.quit:
			return
		case s := <-m.jobs:
			m.drive(s)
		}
	}
}

// drive runs one auto session. Its run n — the n-th experiment of its
// history, whoever reported the ones before — draws the simulator seed
// tune.RunSeed gives n, so a session rebuilt from its history goes on
// exactly as the one that recorded it would have. The simulation itself
// runs outside the session lock so status queries stay responsive.
func (m *Manager) drive(s *Session) {
	cl, wl, _ := resolve(s.spec) // resolved once already, when s was built
	s.mu.Lock()
	if s.state == StateQueued {
		s.state = StateRunning
	}
	// A warm-start request without a client fingerprint: profile the
	// default configuration first (the fingerprinting run of §6.6), match
	// the repository, and seed the tuner before the regular loop.
	needWarm := s.spec.WarmStart && s.warm == nil && s.spec.Stats == nil && len(s.history) == 0
	s.mu.Unlock()

	if needWarm {
		rec := simObservation(cl, wl, s.space.Default(), tune.RunSeed(s.spec.Seed, 0))
		s.mu.Lock()
		if s.state == StateClosed {
			s.mu.Unlock()
			return
		}
		// An aborted default run still fingerprints the workload (its
		// profile covers the portion that ran); RunWithReuse matches on it
		// the same way.
		if rec.Stats != nil {
			m.warmStart(s, *rec.Stats, rec.RuntimeSec)
		}
		// The fingerprinting run is a real experiment: feed it to the
		// tuner (unsolicited observations are incorporated) and the log,
		// with the warm start it matched.
		if err := m.observeLocked(s, rec, s.warm); err != nil {
			// The journal refused the observation; the auto session cannot
			// make durable progress, so it fails rather than silently
			// diverging from its log.
			s.state, s.err = StateFailed, err
			s.mu.Unlock()
			return
		}
		s.lastUsed = m.opts.Now()
		s.mu.Unlock()
	}

	for {
		select {
		case <-m.quit:
			return
		default:
		}

		s.mu.Lock()
		if s.state == StateClosed {
			s.mu.Unlock()
			return
		}
		if s.tuner.Done() || len(s.history) >= maxHistory {
			m.refreshStateLocked(s)
			if s.state == StateRunning { // eval cap hit before the tuner stopped
				s.state = StateDone
				m.harvestLocked(s)
			}
			s.mu.Unlock()
			return
		}
		cfg, n := s.tuner.Suggest(), len(s.history)
		s.mu.Unlock()

		rec := simObservation(cl, wl, cfg, tune.RunSeed(s.spec.Seed, n))

		s.mu.Lock()
		if s.state == StateClosed {
			s.mu.Unlock()
			return
		}
		if len(s.history) >= maxHistory { // a client's observation filled it meanwhile
			s.mu.Unlock()
			continue
		}
		if err := m.observeLocked(s, rec, nil); err != nil {
			s.state, s.err = StateFailed, err
			s.mu.Unlock()
			return
		}
		s.lastUsed = m.opts.Now()
		s.mu.Unlock()
	}
}

// janitor periodically evicts idle sessions.
func (m *Manager) janitor() {
	defer m.wg.Done()
	period := m.opts.TTL / 4
	if period < time.Second {
		period = time.Second
	}
	ticker := time.NewTicker(period)
	defer ticker.Stop()
	for {
		select {
		case <-m.quit:
			return
		case <-ticker.C:
			m.Sweep()
		}
	}
}
