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
// or, for black-box tuning, any incremental tuner run to its stopping rule:
//
//	best, ok := relm.DriveTuner(relm.NewBOTuner(cl, wl, relm.BOOptions{Seed: 1}), ev) // or NewGBOTuner / NewDDPGTuner
//
// Every experiment of the paper can be regenerated through
// relm.RunExperiment (see also cmd/experiments).
//
// The facade is the paper's library: the simulator, the tuners and the
// experiments. The tuning service is reached through its binaries,
// cmd/relm-serve and cmd/relm-router, not through this package.
//
// The facade is the library's public API: its exported functions, and every
// exported method of a type it aliases, count as used. Below it nothing is
// kept that no binary, figure, example, this facade or the benchmark
// reaches (TestEveryFunctionIsReached), and no option field that only its
// type's defaults and tests set (TestEveryKnobIsSet).
package relm

import (
	"fmt"
	"io"

	"relm/internal/bo"
	"relm/internal/conf"
	"relm/internal/core"
	"relm/internal/ddpg"
	"relm/internal/experiments"
	"relm/internal/gbo"
	"relm/internal/profile"
	"relm/internal/sim"
	"relm/internal/sim/cluster"
	"relm/internal/sim/workload"
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

// GBOModel is the white-box guide model Q of §5.2.
type GBOModel = gbo.Model

// DDPGAgent is the deep reinforcement-learning agent of §5.3.
type DDPGAgent = ddpg.Agent

// DDPGOptions configures the RL tuning loop.
type DDPGOptions = ddpg.TuneOptions

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
// for step what a relm-serve auto session with warm_start does. It returns
// the best run (the zero Sample when every run aborted) and whether a
// previous model was re-used.
func RunBOWithReuse(ev *Evaluator, opts BOOptions, repo *ModelRepository, maxDistance float64) (Sample, bool) {
	return bo.RunWithReuse(ev, opts, repo, maxDistance)
}

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

// GBOTuner is the incremental Guided Bayesian optimizer; its Model is the
// guide model Q once an observation carried profile statistics.
type GBOTuner = gbo.Tuner

// NewGBOTuner returns an incremental Guided Bayesian optimizer; the guide
// model Q is built from the first observation carrying profile statistics.
func NewGBOTuner(cl Cluster, wl Workload, opts BOOptions) *GBOTuner {
	return gbo.NewTuner(cl, tune.NewSpace(cl, wl), opts)
}

// DDPGTuner is the incremental DDPG tuner; its Agent is the model it
// trains, to re-use on a new environment (§6.6).
type DDPGTuner = ddpg.Tuner

// NewDDPGTuner returns an incremental DDPG tuner; pass a previously trained
// agent to re-use its model on a new environment, or nil to start fresh.
func NewDDPGTuner(cl Cluster, wl Workload, agent *DDPGAgent, opts DDPGOptions) *DDPGTuner {
	return ddpg.NewTuner(cl, tune.NewSpace(cl, wl), agent, opts)
}

// NewRelMStepTuner returns the steppable form of the RelM workflow:
// profile run(s), then the analytic recommendation as a verification run.
func NewRelMStepTuner(cl Cluster, wl Workload) Tuner {
	return core.New(cl).Incremental(tune.NewSpace(cl, wl))
}

// DriveTuner runs an incremental tuner to its stopping rule against an
// evaluator (batch mode) and returns its best run; the evaluator holds
// every run it took.
func DriveTuner(t Tuner, ev *Evaluator) (Sample, bool) {
	return tune.Drive(t, ev)
}
