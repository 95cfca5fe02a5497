// Package relm is a from-scratch Go reproduction of "Black or White? How to
// Develop an AutoTuner for Memory-based Analytics" (Kunjir & Babu, SIGMOD
// 2020): the RelM white-box memory autotuner, Guided Bayesian Optimization
// (GBO), and the black-box baselines (Bayesian Optimization with a
// Gaussian-Process surrogate, DDPG deep reinforcement learning, exhaustive
// grid search, recursive random search), evaluated on a discrete-event
// simulator of a memory-based analytics cluster (YARN-style containers, a
// ParallelGC JVM heap model, and a Spark-like execution engine).
//
// This root package is the public facade. The typical flow:
//
//	cl := relm.ClusterA()
//	wl, _ := relm.WorkloadByName("PageRank")
//	ev := relm.NewEvaluator(cl, wl, 1)
//
//	tuner := relm.NewRelM(cl)
//	cfg, candidates, err := tuner.TuneWorkload(ev)
//
// or, for black-box tuning:
//
//	res := relm.RunBO(ev, relm.BOOptions{Seed: 1}) // or RunGBO / RunDDPG
//
// Every experiment of the paper can be regenerated through
// relm.RunExperiment (see also cmd/experiments).
package relm

import (
	"fmt"
	"io"
	"net/http"

	"relm/internal/bo"
	"relm/internal/conf"
	"relm/internal/core"
	"relm/internal/ddpg"
	"relm/internal/experiments"
	"relm/internal/gbo"
	"relm/internal/profile"
	"relm/internal/replica"
	"relm/internal/router"
	"relm/internal/service"
	"relm/internal/sim"
	"relm/internal/sim/cluster"
	"relm/internal/sim/workload"
	"relm/internal/store"
	"relm/internal/tune"
)

// Config is one point of the memory-configuration space (Table 1).
type Config = conf.Config

// DefaultConfig returns the MaxResourceAllocation + framework defaults
// (Table 4) for caching workloads.
func DefaultConfig() Config { return conf.Default() }

// DefaultShuffleConfig is DefaultConfig with the unified pool attributed to
// shuffle, for non-caching workloads.
func DefaultShuffleConfig() Config { return conf.DefaultShuffle() }

// Cluster describes the physical resources of a cluster.
type Cluster = cluster.Spec

// ClusterA returns the paper's 8-node, 6GB-per-node evaluation cluster.
func ClusterA() Cluster { return cluster.A() }

// ClusterB returns the paper's 4-node, 32GB-per-node virtual cluster.
func ClusterB() Cluster { return cluster.B() }

// Workload is an application's resource signature.
type Workload = workload.Spec

// Workloads returns the five non-SQL benchmark applications of Table 2.
func Workloads() []Workload { return workload.Benchmarks() }

// TPCHWorkloads returns the 22 TPC-H query workloads.
func TPCHWorkloads() []Workload { return workload.TPCH() }

// WorkloadByName resolves a workload by its Table 2 name ("WordCount",
// "SortByKey", "K-means", "SVM", "PageRank", or "TPC-H Qn").
func WorkloadByName(name string) (Workload, error) {
	wl, ok := workload.ByName(name)
	if !ok {
		return Workload{}, fmt.Errorf("relm: unknown workload %q", name)
	}
	return wl, nil
}

// Result is the outcome of one simulated application run.
type Result = sim.Result

// Profile is the profiling artifact of one run (timelines + event logs).
type Profile = profile.Profile

// Stats are the Table 6 statistics derived from a profile.
type Stats = profile.Stats

// Simulate executes one run of a workload under a configuration.
func Simulate(cl Cluster, wl Workload, cfg Config, seed uint64) (Result, *Profile) {
	return sim.Run(cl, wl, cfg, seed)
}

// GenerateStats derives the Table 6 statistics from a profile (§4.1).
func GenerateStats(p *Profile) Stats { return profile.Generate(p) }

// Evaluator runs configurations for the tuning policies with the paper's
// objective conventions (abort penalty = 2× worst runtime so far).
type Evaluator = tune.Evaluator

// Sample is one observed (configuration, performance) pair.
type Sample = tune.Sample

// NewEvaluator builds an evaluation harness for a (cluster, workload) pair.
func NewEvaluator(cl Cluster, wl Workload, seed uint64) *Evaluator {
	return tune.NewEvaluator(cl, wl, seed)
}

// RelMTuner is the paper's white-box tuner (§4).
type RelMTuner = core.Tuner

// Candidate is one arbitrated per-container-size configuration.
type Candidate = core.Candidate

// NewRelM returns a RelM tuner with the paper's default options (δ = 0.1,
// NewRatio ≤ 9).
func NewRelM(cl Cluster) *RelMTuner { return core.New(cl) }

// BOOptions configures Bayesian Optimization (§5.1).
type BOOptions = bo.Options

// BOResult reports one optimization run.
type BOResult = bo.Result

// RunBO runs vanilla Bayesian Optimization against an evaluator.
func RunBO(ev *Evaluator, opts BOOptions) BOResult {
	return bo.Run(ev, opts, nil)
}

// GBOModel is the white-box guide model Q of §5.2.
type GBOModel = gbo.Model

// RunGBO runs Guided Bayesian Optimization; the guide model is built from
// the first bootstrap sample's profile.
func RunGBO(ev *Evaluator, opts BOOptions) (BOResult, *GBOModel) {
	return gbo.Run(ev, opts)
}

// DDPGAgent is the deep reinforcement-learning agent of §5.3.
type DDPGAgent = ddpg.Agent

// DDPGOptions configures the RL tuning loop.
type DDPGOptions = ddpg.TuneOptions

// DDPGResult reports one RL tuning run.
type DDPGResult = ddpg.TuneResult

// RunDDPG runs DDPG tuning; pass a previously returned agent to re-use a
// trained model on a new environment (§6.6), or nil to start fresh.
func RunDDPG(ev *Evaluator, agent *DDPGAgent, opts DDPGOptions) DDPGResult {
	return ddpg.Tune(ev, agent, opts)
}

// ExhaustiveSearch runs the full 192-configuration grid (§6.1's baseline).
func ExhaustiveSearch(ev *Evaluator) (Sample, []Sample) {
	return tune.Exhaustive(ev)
}

// ModelRepository stores completed tuning sessions keyed by workload
// fingerprints for OtterTune-style model re-use (§6.6). It is plain data:
// the tuning service keeps it as JSON in its snapshots and moves it between
// nodes through /v1/repository/export and /import.
type ModelRepository = bo.Repository

// RunBOWithReuse profiles the workload on the default configuration, matches
// it against the repository by fingerprint distance, warm-starts the
// optimizer on a hit (a confirmation run of the transferred optimum replaces
// the bootstrap), shows it the profiling run, and records the session — step
// for step what a ServiceManager auto session with WarmStart does. It
// reports whether a previous model was re-used.
func RunBOWithReuse(ev *Evaluator, opts BOOptions, repo *ModelRepository, maxDistance float64) (BOResult, bool) {
	return bo.RunWithReuse(ev, opts, repo, maxDistance)
}

// GBOMetricRegistry manages the guide metrics of model Q: the built-in
// q1–q3 plus user extensions, ranked by importance and filtered for
// independence (§5.2's extension mechanism).
type GBOMetricRegistry = gbo.Registry

// NewGBOMetricRegistry returns a registry holding the Equation 8 metrics.
func NewGBOMetricRegistry() *GBOMetricRegistry { return gbo.NewRegistry() }

// LoadDDPGAgent restores an agent saved with (*DDPGAgent).Save, enabling
// cross-session and cross-environment model re-use (Figure 27).
func LoadDDPGAgent(r io.Reader) (*DDPGAgent, error) { return ddpg.Load(r) }

// ExperimentConfig controls a paper-experiment run.
type ExperimentConfig = experiments.Config

// ExperimentIDs lists the reproducible tables and figures.
func ExperimentIDs() []string { return experiments.IDs() }

// RunExperiment regenerates one of the paper's tables or figures; the
// returned value's String renders it in the paper's layout.
func RunExperiment(id string, cfg ExperimentConfig) (fmt.Stringer, error) {
	return experiments.Run(id, cfg)
}

// Tuner is the unified incremental tuning interface: every policy (RelM,
// BO, GBO, DDPG) can be driven one suggest/observe step at a time by any
// caller — a batch loop, the tuning service, or a remote client reporting
// real measurements.
type Tuner = tune.Tuner

// Space is the normalized configuration domain for one (cluster, workload)
// pair.
type Space = tune.Space

// NewSpace builds the standard evaluation space for a workload.
func NewSpace(cl Cluster, wl Workload) Space { return tune.NewSpace(cl, wl) }

// NewBOTuner returns an incremental vanilla Bayesian optimizer.
func NewBOTuner(cl Cluster, wl Workload, opts BOOptions) Tuner {
	return bo.NewTuner(tune.NewSpace(cl, wl), opts, nil, nil)
}

// NewGBOTuner returns an incremental Guided Bayesian optimizer; the guide
// model Q is built from the first observation carrying profile statistics.
func NewGBOTuner(cl Cluster, wl Workload, opts BOOptions) Tuner {
	return gbo.NewTuner(cl, tune.NewSpace(cl, wl), opts)
}

// NewDDPGTuner returns an incremental DDPG tuner; pass a previously trained
// agent to re-use its model on a new environment, or nil to start fresh.
func NewDDPGTuner(cl Cluster, wl Workload, agent *DDPGAgent, opts DDPGOptions) Tuner {
	return ddpg.NewTuner(cl, tune.NewSpace(cl, wl), agent, opts)
}

// NewRelMStepTuner returns the steppable form of the RelM workflow:
// profile run(s), then the analytic recommendation as a verification run.
func NewRelMStepTuner(cl Cluster, wl Workload) Tuner {
	return core.New(cl).Incremental(tune.NewSpace(cl, wl))
}

// DriveTuner runs an incremental tuner to completion against an evaluator
// (batch mode). maxSteps <= 0 selects a safety default.
func DriveTuner(t Tuner, ev *Evaluator, maxSteps int) (Sample, bool) {
	return tune.Drive(t, ev, maxSteps)
}

// ServiceManager multiplexes many concurrent tuning sessions — remote
// clients reporting real measurements and worker-pool-driven simulator
// sessions — behind the tuning-as-a-service subsystem.
type ServiceManager = service.Manager

// ServiceOptions configures the session manager (TTL, worker pool size,
// session limits).
type ServiceOptions = service.Options

// SessionSpec describes one tuning session to create.
type SessionSpec = service.Spec

// SessionObservation is one measured experiment reported to a session.
type SessionObservation = service.Observation

// SessionStatus is a point-in-time snapshot of one session.
type SessionStatus = service.Status

// ServiceMetrics is the service's observability snapshot (session counts
// by state, observation/eviction/warm-start counters, WAL size and
// segmentation, group-commit batching, repository hit/evict counters).
type ServiceMetrics = service.Metrics

// ServiceRepositoryReport is the inspection snapshot of the service's
// model repository (entries with fingerprints and lifecycle counters),
// as served by GET /v1/repository.
type ServiceRepositoryReport = service.RepositoryReport

// SessionStore is the durable knowledge store of the tuning service: a
// segmented append-only write-ahead log of session events with periodic
// compacted snapshots, carrying both session state and the shared model
// repository.
type SessionStore = store.Store

// SessionStoreOptions tunes a file-backed session store: segment rotation
// size, per-append durability, and the group-commit latency/size caps.
type SessionStoreOptions = store.FileOptions

// OpenFileSessionStore opens (creating if needed) a directory-backed
// session store: <dir>/snapshot.json plus a segmented log
// (<dir>/wal-000001.jsonl, …). A pre-segmentation directory holding a
// single wal.jsonl is refused with an error naming the file.
func OpenFileSessionStore(dir string) (SessionStore, error) { return store.OpenFile(dir) }

// OpenFileSessionStoreOptions is OpenFileSessionStore with explicit store
// options (segment size, fsync-per-append with group commit, commit
// interval and batch caps).
func OpenFileSessionStoreOptions(dir string, opts SessionStoreOptions) (SessionStore, error) {
	return store.OpenFile(dir, opts)
}

// NewMemSessionStore returns an in-memory session store with the same
// semantics as the file-backed one (tests, ephemeral servers).
func NewMemSessionStore() SessionStore { return store.NewMem() }

// NewServiceManager starts a session manager with its worker pool and TTL
// janitor. Call Close to stop it. For a durable manager pass a Store via
// OpenServiceManager instead.
func NewServiceManager(opts ServiceOptions) *ServiceManager {
	return service.NewManager(opts)
}

// OpenServiceManager starts a session manager backed by a durable store:
// it replays the write-ahead log, resumes every open session with its
// replayed tuner state, re-queues interrupted auto sessions, and loads the
// persisted model repository for §6.6 warm starts. The manager takes
// ownership of the store and closes it on Close.
func OpenServiceManager(opts ServiceOptions) (*ServiceManager, error) {
	return service.Open(opts)
}

// NewServiceHandler exposes a session manager over the HTTP/JSON tuning
// API (POST /v1/sessions, .../suggest, .../observe, GET /v1/sessions/{id});
// cmd/relm-serve is the ready-made server binary.
func NewServiceHandler(m *ServiceManager) http.Handler {
	return service.NewHandler(m)
}

// ClusterRouter is the stateless front door of a multi-node deployment:
// it partitions sessions across relm-serve backends by rendezvous hashing
// on the session ID, proxies the session lifecycle, merges cluster-wide
// reads, health-checks backends with exponential backoff, and orchestrates
// node drain/hand-off. It is an http.Handler; cmd/relm-router is the
// ready-made binary.
type ClusterRouter = router.Router

// ClusterRouterOptions configures a ClusterRouter (backends, health-check
// cadence and backoff, per-request timeout).
type ClusterRouterOptions = router.Options

// ClusterBackend names one relm-serve node behind a ClusterRouter.
type ClusterBackend = router.Backend

// NewClusterRouter builds a router over the given backends and starts its
// health checkers; call Close to stop them.
func NewClusterRouter(opts ClusterRouterOptions) (*ClusterRouter, error) {
	return router.New(opts)
}

// ReplicaSet is one node's replication role: shipping its own write-ahead
// log to rendezvous-chosen follower peers, and ingesting other primaries'
// logs into local replica directories that a router can promote when a
// primary dies without draining. Pass it to a ServiceManager via
// ServiceOptions.Replica; cmd/relm-serve wires it from -replicate-to.
type ReplicaSet = replica.Set

// ReplicaOptions configures a ReplicaSet (peers, follower factor, replica
// directory, ship interval).
type ReplicaOptions = replica.Options

// ReplicaPeer names one replication peer (same identity as the router's
// ClusterBackend).
type ReplicaPeer = replica.Peer

// NewReplicaSet starts a node's replication role; call Close to stop the
// shipper.
func NewReplicaSet(opts ReplicaOptions) (*ReplicaSet, error) {
	return replica.New(opts)
}

// ServiceHandoffReport is what a leaving node hands over — returned by
// ServiceManager.Drain and by promoting a dead node's replica alike: a
// snapshot of every non-terminal session it held, which a successor's
// ServiceManager.Adopt rebuilds bit-exact, plus its model repository.
type ServiceHandoffReport = service.HandoffReport

// ExtractServiceHandoff replays a promoted (fenced) replica directory into
// a hand-off report, exactly as POST /v1/replica/promote does.
func ExtractServiceHandoff(dir, node string) (ServiceHandoffReport, error) {
	return service.ExtractHandoff(dir, node)
}
