// Package exec implements the Spark-like execution engine of the simulator:
// stage-by-stage, wave-by-wave scheduling of tasks onto container slots,
// unified cache/shuffle memory arbitration, external-sort spilling, cache
// storage with block rejection under memory pressure, out-of-memory task
// failures with Spark's retry semantics (container replacement, job abort),
// resource-manager kills of containers whose RSS exceeds the physical limit,
// and CPU/disk/network contention.
//
// A run produces both a Result (the scalar metrics the figures plot) and a
// full profile.Profile (the artifact RelM and GBO consume).
package exec

import (
	"math"

	"relm/internal/conf"
	"relm/internal/profile"
	"relm/internal/sim/cluster"
	"relm/internal/sim/jvm"
	"relm/internal/sim/unified"
	"relm/internal/sim/workload"
	"relm/internal/simrand"
)

// Result summarizes one simulated application run.
type Result struct {
	RuntimeSec        float64
	Aborted           bool
	ContainerFailures int
	MaxHeapUtil       float64 // peak heap occupancy / heap capacity
	CPUAvg            float64 // average CPU utilization, 0..1
	DiskAvg           float64 // average disk utilization, 0..1
	GCOverhead        float64 // average fraction of task time in GC
	CacheHitRatio     float64
	SpillFraction     float64
}

// RuntimeMin returns the runtime in minutes.
func (r Result) RuntimeMin() float64 { return r.RuntimeSec / 60 }

// heapReserve is the fraction of heap the JVM keeps for its own internal
// objects and an empty survivor space (Figure 3's reserved area).
const heapReserve = 0.03

// shuffleExpansion is the deserialization slack of in-memory shuffle
// structures: the heap footprint exceeds the accounted bytes, the classic
// cause of shuffle-memory OOMs the paper's §3.1 failure study observes.
const shuffleExpansion = 1.35

// engine carries the state of one simulated run.
type engine struct {
	cl  cluster.Spec
	wl  workload.Spec
	cfg conf.Config
	rng *simrand.Rand

	heapMB     float64
	physCap    float64
	containers int
	slotsNode  int // concurrently running task slots per node
	prof       *profile.Profile
	// Containers are homogeneous: one representative heap is simulated, and
	// its timelines are recorded once and shared by every container.
	heap                                           *jvm.Heap
	heapUsed, oldUsed, rss, cacheUsed, shuffleUsed profile.Timeline

	now           float64
	aborted       bool
	failures      int
	cacheStored   float64 // per-container cache storage actually held, MB
	cacheNeedPerC float64
	hitRatio      float64
	cacheWritten  float64 // cluster-wide cache bytes written so far

	cpuUtilSum, diskUtilSum, utilWeight float64
	cpuShareSum, diskShareSum           float64
}

// Run simulates workload wl under configuration cfg on cluster cl with the
// given random seed, returning the run metrics and the full profile.
func Run(cl cluster.Spec, wl workload.Spec, cfg conf.Config, seed uint64) (Result, *profile.Profile) {
	if err := cfg.Validate(); err != nil {
		// Structurally invalid configurations behave like immediate aborts.
		return Result{Aborted: true, RuntimeSec: 60}, &profile.Profile{
			Workload: wl.Name, Config: cfg, Aborted: true, Duration: 60,
			CoresPerNode: cl.CoresPerNode,
		}
	}
	e := &engine{
		cl:         cl,
		wl:         wl,
		cfg:        cfg,
		rng:        simrand.New(seed ^ hashString(wl.Name)),
		heapMB:     cl.HeapPerContainer(cfg.ContainersPerNode),
		physCap:    cl.PhysCapPerContainer(cfg.ContainersPerNode),
		containers: cl.Containers(cfg.ContainersPerNode),
		slotsNode:  cfg.ContainersPerNode * cfg.TaskConcurrency,
	}
	e.setup()
	e.run()
	return e.finish()
}

func hashString(s string) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

func (e *engine) setup() {
	e.prof = &profile.Profile{
		Workload:     e.wl.Name,
		Config:       e.cfg,
		HeapSizeMB:   e.heapMB,
		CoresPerNode: e.cl.CoresPerNode,
	}
	layout := jvm.Layout{HeapMB: e.heapMB, NewRatio: e.cfg.NewRatio, SurvivorRatio: e.cfg.SurvivorRatio}
	e.heap = jvm.New(layout, jvm.DefaultCostModel())
	e.heap.Tenure(e.wl.CodeOverheadMB)

	// The stage plan fixes the wave count of a run that does not abort, and
	// with it every record's size.
	slots, waves := e.containers*e.cfg.TaskConcurrency, 0
	for _, st := range e.wl.Stages {
		waves += max(1, st.Repeat) * ((st.Tasks + slots - 1) / slots)
	}
	e.prof.Waves = make([]profile.TaskWave, 0, waves)
	e.heapUsed = make(profile.Timeline, 0, 1+2*waves)
	e.oldUsed = make(profile.Timeline, 0, 1+waves)
	e.rss = make(profile.Timeline, 0, 1+2*waves)
	e.cacheUsed = make(profile.Timeline, 0, waves)
	e.shuffleUsed = make(profile.Timeline, 0, 2*waves)
	e.heapUsed.Append(0, e.wl.CodeOverheadMB)
	e.oldUsed.Append(0, e.wl.CodeOverheadMB)
	e.rss.Append(0, e.heapMB*0.4+e.heap.Cost.NativeBaseMB)

	cps := make([]profile.ContainerProfile, e.containers)
	e.prof.Containers = make([]*profile.ContainerProfile, e.containers)
	for i := range cps {
		cps[i] = profile.ContainerProfile{
			ID:              i,
			Node:            i % e.cl.Nodes,
			HeapCapMB:       e.heapMB,
			PhysCapMB:       e.physCap,
			FirstTaskHeapMB: e.wl.CodeOverheadMB * e.rng.Norm(1, 0.02),
		}
		e.prof.Containers[i] = &cps[i]
	}
	// Container 0 also carries the one young-GC event a wave records.
	cps[0].GCEvents = make([]profile.GCEvent, 0, waves)
	e.planCache()
}

// planCache decides how much cache storage each container ends up holding.
// The cache capacity bounds it from above; under memory pressure the block
// manager rejects/evicts blocks down to the protected storage region
// (spark.memory.storageFraction of the pool), mirroring Observation 4:
// cache competes with task memory.
func (e *engine) planCache() {
	if e.wl.CacheNeedMB <= 0 {
		e.hitRatio = 1
		return
	}
	e.cacheNeedPerC = e.wl.CacheNeedMB / float64(e.containers)
	capMB := e.cfg.CacheCapacity * e.heapMB
	taskDemand := float64(e.cfg.TaskConcurrency) * e.peakUnmanaged() * 1.15
	fit := e.heapMB*(1-heapReserve) - e.wl.CodeOverheadMB - taskDemand
	protected := 0.5 * capMB
	stored := math.Min(capMB, e.cacheNeedPerC)
	if stored > fit {
		// Reject blocks under pressure, but never below the protected region.
		stored = math.Max(math.Min(protected, e.cacheNeedPerC), fit)
	}
	if stored < 0 {
		stored = 0
	}
	e.cacheStored = stored
	e.hitRatio = math.Min(1, stored/e.cacheNeedPerC)
}

// peakUnmanaged returns the largest per-task unmanaged working set across
// stages — what the block manager sees competing with storage.
func (e *engine) peakUnmanaged() float64 {
	var m float64
	for _, s := range e.wl.Stages {
		if s.UnmanagedMBPerTask > m {
			m = s.UnmanagedMBPerTask
		}
	}
	return m
}

// shuffleShare returns the per-task shuffle memory grant under Spark's
// unified-pool arbitration: execution gets whatever the pool holds beyond
// the cached blocks the configuration protects. A small floor remains even
// when storage fills the pool (Spark never starves a task to zero).
func (e *engine) shuffleShare() float64 {
	p := e.cfg.TaskConcurrency
	pool := e.cfg.UnifiedFraction() * e.heapMB
	keep := math.Min(e.cacheStored, e.cfg.CacheCapacity*e.heapMB)
	share := unified.ExecutionShare(pool, keep, keep, p)
	floor := 0.015 * e.heapMB / float64(p)
	return math.Max(share, floor)
}

func (e *engine) run() {
	for si, st := range e.wl.Stages {
		repeat := st.Repeat
		if repeat < 1 {
			repeat = 1
		}
		for it := 0; it < repeat; it++ {
			if e.aborted {
				return
			}
			e.runStage(si, it, st)
		}
	}
}

// stageLoad captures the per-task load parameters computed once per stage.
type stageLoad struct {
	held       float64 // shuffle memory held per task (accounted bytes)
	heldEff    float64 // actual heap footprint of the held shuffle memory
	spilled    bool    // the task spills (share below need)
	batches    int     // shuffle batches processed per task
	spillMBPer float64 // serialized MB spilled to disk per task
	missFrac   float64
	cpuSec     float64
	diskMB     float64
	netMB      float64
	unmanaged  float64
}

func (e *engine) computeLoad(st workload.StageSpec) stageLoad {
	var l stageLoad
	l.unmanaged = st.UnmanagedMBPerTask

	// Shuffle memory: sort/aggregation structures expand to use the granted
	// share (TimSort/AppendOnlyMap grow opportunistically), so the held
	// buffer grows with the grant even past the minimum need.
	if st.ShuffleNeedMBPerTask > 0 {
		share := e.shuffleShare()
		expandCap := st.ShuffleNeedMBPerTask * 1.8
		l.held = math.Min(share, expandCap)
		if l.held < 4 {
			l.held = math.Min(4, st.ShuffleNeedMBPerTask)
		}
		if share < st.ShuffleNeedMBPerTask {
			l.spilled = true
			l.batches = int(math.Ceil(st.ShuffleNeedMBPerTask / math.Max(l.held, 1)))
			// Spilled data is written serialized (the deserialization
			// expansion reversed).
			l.spillMBPer = (st.ShuffleNeedMBPerTask - l.held) * 0.45
			l.heldEff = l.held
		} else {
			l.batches = 1 // one final in-memory batch
			// Large in-memory batches carry the full deserialization slack.
			l.heldEff = l.held * shuffleExpansion
		}
	}

	// Cache misses: missed partitions are recomputed through the lineage.
	if st.CacheReadMBPerTask > 0 {
		l.missFrac = 1 - e.hitRatio
	}
	missMB := st.CacheReadMBPerTask * l.missFrac

	l.cpuSec = st.CPUSecPerTask + missMB*e.wl.RecomputeCPUSecPerMB
	l.diskMB = st.InputMBPerTask + st.OutputMBPerTask + 2*l.spillMBPer + missMB*0.6
	l.netMB = st.ShuffleReadMBPerTask + st.NetworkMBPerTask + missMB*e.wl.RecomputeNetMBPerMB
	return l
}

// runStage executes one (repeat of a) stage: all waves, then the stage-level
// failure model.
func (e *engine) runStage(si, iter int, st workload.StageSpec) {
	l := e.computeLoad(st)
	p := e.cfg.TaskConcurrency
	slots := e.containers * p
	tasks := st.Tasks
	taskIdx := iter * st.Tasks
	cacheLiveAtStart := math.Min(e.cacheWritten/float64(e.containers), e.cacheStored)

	var stageTaskDur float64
	var lastGC waveGC
	waves := 0
	for tasks > 0 {
		waveTasks := slots
		if tasks < waveTasks {
			waveTasks = tasks
		}
		tasks -= waveTasks
		_, taskDur, gc := e.runWave(si, st, l, waveTasks, taskIdx)
		taskIdx += waveTasks
		stageTaskDur = taskDur
		waves++
		if gc.Tasks() > 0 {
			lastGC = gc
		}
	}

	// Shuffle/cache accounting for the S and H statistics.
	if st.ShuffleNeedMBPerTask > 0 {
		e.prof.ShuffledMB += st.ShuffleNeedMBPerTask * float64(st.Tasks)
		e.prof.SpilledMB += (l.spillMBPer / 0.45) * float64(st.Tasks)
	}
	if st.CacheReadMBPerTask > 0 {
		e.prof.CacheRequests += st.Tasks
		e.prof.CacheHits += int(math.Round(e.hitRatio * float64(st.Tasks)))
	}

	e.applyStageFailures(l, lastGC, waves, stageTaskDur, cacheLiveAtStart)
}

// waveGC decorates jvm.WaveResult with the wave's task count for the
// stage-level failure model.
type waveGC struct {
	jvm.WaveResult
	tasksPerC int
}

func (w waveGC) Tasks() int { return w.tasksPerC }

func (e *engine) runWave(si int, st workload.StageSpec, l stageLoad, waveTasks, firstTask int) (waveDur, taskDur float64, gcOut waveGC) {
	p := e.cfg.TaskConcurrency
	cores := float64(e.cl.CoresPerNode)

	// Tasks running per node during this wave (last waves may be partial).
	nodeTasks := math.Min(float64(e.slotsNode), float64(waveTasks)/float64(e.cl.Nodes))
	if nodeTasks < 1 {
		nodeTasks = 1
	}

	// --- Contention. ---
	// Beyond the hard core limit, co-running tasks interfere softly (memory
	// bandwidth, GC threads, OS noise), so the slowdown starts before 100%.
	cpuDemand := nodeTasks * st.CPUCoresPerTask
	cpuShare := cpuDemand / cores
	cpuUtil := math.Min(1, 0.2+0.75*cpuShare)
	cpuFactor := math.Max(1, cpuShare) * (1 + 0.8*math.Min(1, cpuShare)*math.Min(1, cpuShare))
	durCPU := l.cpuSec * cpuFactor

	diskRate := 0.0
	if base := l.cpuSec + 1e-9; base > 0 {
		diskRate = nodeTasks * l.diskMB / base
	}
	diskUtil := math.Min(1, 0.03+diskRate/e.cl.DiskMBps)
	durDisk := l.diskMB / (e.cl.DiskMBps / math.Max(nodeTasks, 1))
	durNet := l.netMB / (e.cl.NetworkMBps / math.Max(nodeTasks, 1))

	taskDur = (durCPU + durDisk + durNet) * e.rng.Norm(1, 0.02)
	if taskDur < 0.2 {
		taskDur = 0.2
	}

	// --- Heap behaviour of the representative container. ---
	tasksPerC := p
	if waveTasks < e.containers*p {
		tasksPerC = (waveTasks + e.containers - 1) / e.containers
		if tasksPerC < 1 {
			tasksPerC = 1
		}
	}
	promotePerC := 0.0
	if st.CacheWriteMBPerTask > 0 {
		room := e.cacheStored*float64(e.containers) - e.cacheWritten
		want := st.CacheWriteMBPerTask * float64(waveTasks)
		grant := math.Max(0, math.Min(want, room))
		e.cacheWritten += grant
		promotePerC = grant / float64(e.containers)
	}
	cacheLive := math.Min(e.cacheWritten/float64(e.containers), e.cacheStored)
	load := jvm.WaveLoad{
		Duration:     taskDur,
		AllocMB:      float64(tasksPerC) * (st.BytesProcessed() + st.NetworkMBPerTask*0.3) * st.AllocFactor,
		LiveShortMB:  float64(tasksPerC) * (l.unmanaged + l.heldEff),
		PromoteMB:    promotePerC,
		LongLivedMB:  e.wl.CodeOverheadMB + cacheLive,
		Spills:       l.batches * tasksPerC,
		SpillBatchMB: l.held,
		Tasks:        tasksPerC,
	}
	if taskDur > 0 {
		// Native buffers accumulate per fetch stream; each task's stream is
		// bounded by the remote serving rate, so concurrency (not bandwidth)
		// governs the backlog growth.
		perTask := math.Min(l.netMB/taskDur, 30)
		load.NativeRateMBps = float64(tasksPerC) * perTask
	}

	gc := e.heap.SimulateWave(load)

	pause := gc.PauseSec
	waveDur = taskDur + pause
	start := e.now
	e.now += waveDur

	e.recordWave(si, st, l, gc, start, waveDur, taskDur, pause, waveTasks, tasksPerC, cacheLive, firstTask)

	e.cpuUtilSum += cpuUtil * waveDur
	e.diskUtilSum += diskUtil * waveDur
	e.cpuShareSum += math.Min(1, cpuShare) * waveDur
	e.diskShareSum += math.Min(1, diskRate/e.cl.DiskMBps) * waveDur
	e.utilWeight += waveDur
	return waveDur, taskDur, waveGC{WaveResult: gc, tasksPerC: tasksPerC}
}

// applyStageFailures runs the stage-level reliability model: out-of-memory
// failures when the heap demand approaches capacity (each container-wave is
// a failure opportunity; the boundary is a soft normal CDF so runs near the
// edge vary wildly — Observation 2), GC-churn-induced allocation failures,
// and resource-manager kills when the RSS overshoots the physical limit.
// Each failure costs a retry on a replacement container; OOM failures that
// recur on one task abort the job (Spark's four-attempt rule).
func (e *engine) applyStageFailures(l stageLoad, gc waveGC, waves int, taskDur, cacheLiveAtStart float64) {
	tasksPerC := gc.tasksPerC
	if tasksPerC == 0 {
		tasksPerC = e.cfg.TaskConcurrency
	}
	demand := e.wl.CodeOverheadMB + cacheLiveAtStart +
		float64(tasksPerC)*(l.unmanaged*e.rng.Norm(1, 0.03)+l.heldEff)
	headroom := e.heapMB * (1 - heapReserve)
	ratio := demand / headroom

	// Out-of-memory opportunities: one per container per wave; the per-
	// opportunity probability ramps through a soft boundary centred just
	// above full occupancy. Old-generation slack modulates the risk — with a
	// roomy Old pool, full collections recover allocation pressure that a
	// thrashing one cannot (the NewRatio reliability lever of Observation 6).
	opportunities := float64(e.containers * waves)
	if opportunities > 24 {
		opportunities = 24
	}
	perP := normCDF((ratio - 1.005) / 0.02)
	if perP > 0.5 {
		perP = 0.5
	}
	perP *= 0.5 + 0.5*gc.EscFraction
	lambdaOOM := math.Min(4, opportunities*perP)
	// GC churn (allocation stalls while Old thrashes) adds failure pressure
	// proportional to the escalation intensity — but only when the heap is
	// actually tight; churn with headroom is slow, not fatal.
	if ratio > 0.85 {
		e3 := gc.EscFraction * gc.EscFraction * gc.EscFraction
		lambdaOOM += math.Min(1.2, e3*1.2)
	}
	// Blacklisting/adaptation: repeated failures teach the scheduler to
	// avoid the pattern, attenuating later stages' failure intensity.
	lambdaOOM /= 1 + 0.3*float64(e.failures)

	// Resource-manager kill intensity from RSS overshoot.
	lambdaKill := 0.0
	if over := gc.PeakRSS - e.physCap; over > 0 {
		lambdaKill = math.Min(6, over/(0.10*e.physCap)*3)
	}

	oomFails := e.rng.Poisson(lambdaOOM)
	killFails := e.rng.Poisson(lambdaKill)
	fails := oomFails + killFails
	if fails == 0 {
		return
	}
	e.failures += fails
	// Each failure re-runs work on a replacement container (JVM restart,
	// shuffle refetch, lost cached blocks recomputed).
	e.now += float64(fails) * (taskDur*1.2 + 15)

	// A task that keeps failing on every attempt aborts the job. OOM
	// failures recur on the same task and dominate the abort risk; RM kills
	// land on fresh containers and rarely exhaust one task's attempts.
	// A single isolated OOM is usually absorbed by a retry; the risk grows
	// with repeated failures in the same stage.
	abortP := 1 - math.Exp(-(0.13*math.Max(0, float64(oomFails)-0.5) + 0.03*float64(killFails)))
	if ratio > 1.12 {
		abortP = math.Max(abortP, 0.9) // hopeless overload
	}
	if e.rng.Bool(abortP) {
		e.aborted = true
		// The final failing attempts burn a sizeable share of the elapsed
		// time before the driver gives up.
		e.now *= 1.45
	}
}

// normCDF is the standard normal cumulative distribution function.
func normCDF(z float64) float64 {
	return 0.5 * math.Erfc(-z/math.Sqrt2)
}

// recordWave appends the wave's timeline samples (once, for all containers),
// each container's GC events, and the wave's run-length task record.
func (e *engine) recordWave(si int, st workload.StageSpec, l stageLoad, gc jvm.WaveResult,
	start, waveDur, taskDur, pause float64, waveTasks, tasksPerC int, cacheLive float64, firstTask int) {

	end := start + waveDur
	shuffleLive := float64(tasksPerC) * l.held
	e.heapUsed.Append(start, gc.PeakHeap*0.8)
	e.heapUsed.Append(end, gc.PeakHeap)
	e.oldUsed.Append(end, gc.OldAfter)
	e.rss.Append(start, e.heapMB*0.9+e.heap.Cost.NativeBaseMB)
	e.rss.Append(end, gc.PeakRSS)
	e.cacheUsed.Append(end, cacheLive)
	e.shuffleUsed.Append(start, shuffleLive)
	e.shuffleUsed.Append(end, 0)

	// Representative GC events: one young event plus the full events
	// (capped per wave) with the post-collection residency that the
	// statistics generator reads Mu from. The residency noise is drawn per
	// container, which is why these stay per container.
	eventPause := pause / float64(gc.YoungGCs+gc.FullGCs+1)
	fulls := min(gc.FullGCs, 3)
	for ci, cp := range e.prof.Containers {
		if gc.YoungGCs > 0 && ci == 0 {
			cp.GCEvents = append(cp.GCEvents, profile.GCEvent{
				T: start + waveDur*0.4, Full: false, Pause: eventPause,
				HeapBefore: gc.PeakHeap, HeapAfter: gc.PeakHeap * 0.75,
				OldAfter: gc.OldAfter, CacheAtGC: cacheLive, ShuffleAtGC: shuffleLive, Running: tasksPerC,
			})
		}
		for f := 0; f < fulls; f++ {
			frac := (float64(f) + 0.6) / (float64(fulls) + 0.6)
			after := e.wl.CodeOverheadMB + cacheLive +
				float64(tasksPerC)*(l.unmanaged*e.rng.Norm(1, 0.03)+l.held)
			if after > e.heapMB {
				after = e.heapMB
			}
			cp.GCEvents = append(cp.GCEvents, profile.GCEvent{
				T: start + waveDur*frac, Full: true, Pause: eventPause,
				HeapBefore: math.Min(e.heapMB, after*1.15), HeapAfter: after,
				OldAfter: gc.OldAfter, CacheAtGC: cacheLive, ShuffleAtGC: shuffleLive, Running: tasksPerC,
			})
		}
	}

	e.prof.Waves = append(e.prof.Waves, profile.TaskWave{
		Stage:      si,
		First:      firstTask,
		Tasks:      waveTasks,
		Containers: e.containers,
		Start:      start,
		End:        start + taskDur + pause,
		GCTime:     pause,
		SpillMB:    l.spillMBPer,
		ShuffleMB:  st.ShuffleNeedMBPerTask,
	})
}

func (e *engine) finish() (Result, *profile.Profile) {
	e.prof.Duration = e.now * e.rng.Norm(1, 0.015)
	if e.prof.Duration < 0.5 {
		e.prof.Duration = 0.5
	}
	e.prof.Aborted = e.aborted
	e.prof.ContainerFailures = e.failures
	// Every container sees the one recorded series, capacity-clipped so an
	// Append on one reallocates instead of writing into its siblings.
	clip := func(tl profile.Timeline) profile.Timeline { return tl[:len(tl):len(tl)] }
	for _, cp := range e.prof.Containers {
		cp.HeapUsed, cp.OldUsed, cp.RSS = clip(e.heapUsed), clip(e.oldUsed), clip(e.rss)
		cp.CacheUsed, cp.ShuffleUsed = clip(e.cacheUsed), clip(e.shuffleUsed)
	}

	res := Result{
		RuntimeSec:        e.prof.Duration,
		Aborted:           e.aborted,
		ContainerFailures: e.failures,
		MaxHeapUtil:       e.prof.MaxHeapUtilization(),
		GCOverhead:        e.prof.GCOverhead(),
		CacheHitRatio:     e.prof.HitRatio(),
		SpillFraction:     e.prof.SpillFraction(),
	}
	if e.utilWeight > 0 {
		res.CPUAvg = e.cpuUtilSum / e.utilWeight
		res.DiskAvg = e.diskUtilSum / e.utilWeight
		e.prof.CPUShareAvg = e.cpuShareSum / e.utilWeight
		e.prof.DiskShareAvg = e.diskShareSum / e.utilWeight
	}
	e.prof.CPUUtil.Append(0, res.CPUAvg)
	e.prof.CPUUtil.Append(e.prof.Duration, res.CPUAvg)
	e.prof.DiskUtil.Append(0, res.DiskAvg)
	e.prof.DiskUtil.Append(e.prof.Duration, res.DiskAvg)
	return res, e.prof
}
