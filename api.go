package vessel

import (
	"fmt"
	"strings"

	"vessel/internal/clustersched"
	"vessel/internal/cpu"
	"vessel/internal/faultinject"
	"vessel/internal/harness"
	"vessel/internal/multidomain"
	"vessel/internal/obs"
	"vessel/internal/obs/journey"
	"vessel/internal/sched"
	"vessel/internal/sched/arachne"
	"vessel/internal/sched/caladan"
	"vessel/internal/sched/cfs"
	"vessel/internal/selfheal"
	"vessel/internal/sim"
	"vessel/internal/trace"
	"vessel/internal/uproc"
	ivessel "vessel/internal/vessel"
	"vessel/internal/workload"
)

// Core types of the performance-simulation API, re-exported from the
// internal packages so user code imports only this package.
type (
	// Config describes one simulated run: cores, duration, apps, costs.
	Config = sched.Config
	// Result is a run's outcome: per-app results and cycle breakdown.
	Result = sched.Result
	// AppResult is one application's throughput/latency outcome.
	AppResult = sched.AppResult
	// CycleBreakdown partitions machine time (app/runtime/kernel/switch/idle).
	CycleBreakdown = sched.CycleBreakdown
	// Scheduler runs a Config; implementations are VESSEL and baselines.
	Scheduler = sched.Scheduler
	// App is a latency-critical or best-effort application.
	App = workload.App
	// ServiceDist samples request service times.
	ServiceDist = workload.ServiceDist
	// Burst configures ON/OFF modulated arrivals.
	Burst = workload.Burst
	// CostModel holds every timing constant of the reproduction.
	CostModel = cpu.CostModel
	// Duration is virtual time in nanoseconds.
	Duration = sim.Duration
	// Time is a virtual-time instant.
	Time = sim.Time
	// LatencySummary is the Avg/P50/P90/P99/P999 report.
	LatencySummary = sched.AppResult
	// TraceRecorder captures per-core execution segments; set Config.Trace
	// to one and call Render for Figure 7-style timelines.
	TraceRecorder = trace.Recorder
	// Observer is the deterministic observability layer (span timelines,
	// cycle attribution, metrics registry); set Config.Obs to one built
	// with NewObserver, or attach it to a Manager with AttachObs.
	Observer = obs.Observer
	// JourneyTracer is the request-journey tracing layer (causal span
	// trees, critical-path attribution, flight recorder, SLO monitor);
	// set Config.Journey to one built with NewJourneyTracer, or attach
	// it to a Manager with AttachJourney.
	JourneyTracer = journey.Tracer
	// JourneyConfig configures a tracer built with NewJourneyTracerWith:
	// SLO target, 1-in-N request sampling, flight-recorder capacity.
	JourneyConfig = journey.Config
)

// NewObserver returns an enabled observability layer whose per-core span
// rings hold perCore spans each (≤ 0 selects the default capacity).
func NewObserver(perCore int) *Observer { return obs.New(perCore) }

// NewJourneyTracer returns an enabled request-journey tracer with
// default configuration (flight recorder on, SLO monitor off).
func NewJourneyTracer() *JourneyTracer { return journey.New() }

// NewJourneyTracerWith returns an enabled request-journey tracer with
// explicit configuration — notably Config.SampleEvery for production-style
// 1-in-N sampling, which bounds tracing overhead at high request rates.
func NewJourneyTracerWith(cfg JourneyConfig) *JourneyTracer { return journey.NewTracer(cfg) }

// Virtual-time units.
const (
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// DefaultCosts returns the calibrated cost model (DESIGN.md §4). Clone it
// to sweep individual constants.
func DefaultCosts() *CostModel { return cpu.Default() }

// NewTraceRecorder returns a bounded timeline recorder keeping at most max
// segments (max ≤ 0 selects a generous default).
func NewTraceRecorder(max int) *TraceRecorder { return trace.NewRecorder(max) }

// VESSEL returns the paper's scheduler: one-level global scheduling with
// sub-microsecond userspace context switches.
func VESSEL() Scheduler { return ivessel.Simulator{} }

// Caladan returns the plain Caladan baseline.
func Caladan() Scheduler { return caladan.Simulator{Variant: caladan.Plain} }

// CaladanDRLow returns Caladan with Delay Range 0.5–1µs.
func CaladanDRLow() Scheduler { return caladan.Simulator{Variant: caladan.DRLow} }

// CaladanDRHigh returns Caladan with Delay Range 1–4µs.
func CaladanDRHigh() Scheduler { return caladan.Simulator{Variant: caladan.DRHigh} }

// Linux returns the CFS baseline (L-apps nice −19, B-apps nice 20).
func Linux() Scheduler { return cfs.Simulator{} }

// Arachne returns the Arachne core-arbiter baseline.
func Arachne() Scheduler { return arachne.Simulator{} }

// Schedulers returns every scheduler in the evaluation, VESSEL first.
func Schedulers() []Scheduler {
	return []Scheduler{VESSEL(), Caladan(), CaladanDRLow(), CaladanDRHigh(), Linux(), Arachne()}
}

// NewScheduler resolves a scheduler by name (case-insensitive): "vessel",
// "caladan", "caladan-dr-l", "caladan-dr-h", "linux", "arachne".
func NewScheduler(name string) (Scheduler, error) {
	switch strings.ToLower(name) {
	case "vessel":
		return VESSEL(), nil
	case "caladan":
		return Caladan(), nil
	case "caladan-dr-l", "dr-l":
		return CaladanDRLow(), nil
	case "caladan-dr-h", "dr-h":
		return CaladanDRHigh(), nil
	case "linux", "cfs":
		return Linux(), nil
	case "arachne":
		return Arachne(), nil
	default:
		return nil, fmt.Errorf("vessel: unknown scheduler %q", name)
	}
}

// NewMemcached builds the memcached/USR L-app (1µs mean service,
// Poisson arrivals) at the given offered load in requests/second.
func NewMemcached(ratePerSec float64) *App {
	return workload.NewLApp("memcached", workload.Memcached(), ratePerSec)
}

// NewSilo builds the Silo/TPC-C L-app (20µs median, 280µs P999).
func NewSilo(ratePerSec float64) *App {
	return workload.NewLApp("silo", workload.Silo(), ratePerSec)
}

// NewLApp builds a custom latency-critical app.
func NewLApp(name string, dist ServiceDist, ratePerSec float64) *App {
	return workload.NewLApp(name, dist, ratePerSec)
}

// NewLinpack builds the CPU-bound best-effort app.
func NewLinpack() *App { return workload.Linpack() }

// NewMembench builds the memory-intensive best-effort app.
func NewMembench() *App { return workload.Membench() }

// NewBApp builds a custom best-effort app with the given per-core
// bandwidth demand (GB/s) and memory-phase fraction.
func NewBApp(name string, bwDemandGBs, memFrac float64) *App {
	return workload.NewBApp(name, bwDemandGBs, memFrac)
}

// MemcachedDist returns the memcached/USR service distribution.
func MemcachedDist() ServiceDist { return workload.Memcached() }

// SiloDist returns the Silo/TPC-C service distribution.
func SiloDist() ServiceDist { return workload.Silo() }

// IdealCapacity returns the zero-overhead service capacity of the given
// core count for a service distribution, in requests/second — the
// normalization basis for "total normalized throughput".
func IdealCapacity(cores int, dist ServiceDist) float64 {
	return sched.IdealLCapacity(cores, dist)
}

// Run-harness types, re-exported so sweeps are composed entirely through
// this package: declare RunSpecs, gather them into a Plan, and execute on
// a deterministic parallel Executor with an optional content-addressed
// cache (DESIGN.md §11 "Run harness").
type (
	// RunSpec is the declarative, hashable description of one run.
	RunSpec = harness.RunSpec
	// AppSpec is a RunSpec's serializable application description.
	AppSpec = harness.AppSpec
	// BurstSpec is an AppSpec's ON/OFF arrival modulation.
	BurstSpec = harness.BurstSpec
	// Plan is an ordered list of RunSpecs; results always merge in plan
	// order, independent of execution order.
	Plan = harness.Plan
	// Axes composes a Plan from sweep dimensions.
	Axes = harness.Axes
	// Executor runs plans on a worker pool with byte-identical output at
	// any parallelism.
	Executor = harness.Executor
	// RunResult pairs a RunSpec with its result and cache provenance.
	RunResult = harness.RunResult
	// RunCache is the content-addressed result cache keyed by spec hash.
	RunCache = harness.Cache
)

// NewExecutor builds an executor with the given worker-pool width
// (≤ 0 selects DefaultParallel) backed by a content-addressed cache at
// cacheDir (empty disables caching).
func NewExecutor(parallel int, cacheDir string) (*Executor, error) {
	e := &Executor{Parallel: parallel}
	if cacheDir != "" {
		c, err := harness.OpenCache(cacheDir)
		if err != nil {
			return nil, err
		}
		e.Cache = c
	}
	return e, nil
}

// DefaultParallel is the default worker-pool width: the host's usable
// parallelism, never less than one.
func DefaultParallel() int { return harness.DefaultParallel() }

// SchedulerNames lists every scheduler the harness can resolve by name.
func SchedulerNames() []string { return harness.SchedulerNames() }

// Fault-injection and chaos-harness types, re-exported so chaos runs are
// driven entirely through this package (the robustness surface: see
// DESIGN.md "Fault model & chaos harness").
type (
	// FaultPlan declares a deterministic, seed-driven injection schedule.
	FaultPlan = faultinject.Plan
	// InjectedFault is one planned injection inside a FaultPlan.
	InjectedFault = faultinject.Fault
	// FaultKind enumerates the injectable failure modes.
	FaultKind = faultinject.Kind
	// Injector drives a FaultPlan against a running manager.
	Injector = faultinject.Injector
	// EventLog is the containment event stream — the determinism witness.
	EventLog = trace.EventLog
	// TraceEvent is one entry of an EventLog.
	TraceEvent = trace.Event
	// Watchdog is the per-uProcess cycle-budget policy.
	Watchdog = uproc.Watchdog
	// RestartPolicy caps supervised relaunches with exponential backoff.
	RestartPolicy = ivessel.RestartPolicy
	// ChaosConfig parameterises Manager.RunChaos.
	ChaosConfig = ivessel.ChaosConfig
	// ChaosReport summarises a chaos run.
	ChaosReport = ivessel.ChaosReport
)

// Injectable failure modes.
const (
	FaultWildWrite    = faultinject.WildWrite
	FaultGateCrash    = faultinject.GateCrash
	FaultRuntimeCrash = faultinject.RuntimeCrash
	FaultRunaway      = faultinject.Runaway
	FaultDropUintr    = faultinject.DropUintr
	FaultDelayUintr   = faultinject.DelayUintr
	FaultWedgeQueue   = faultinject.WedgeQueue
	FaultCoreStall    = faultinject.CoreStall
	FaultDomainCrash  = faultinject.DomainCrash
	FaultPolicyPanic  = faultinject.PolicyPanic
	FaultUintrStorm   = faultinject.UintrStorm
	FaultPkeyLeak     = faultinject.PkeyLeak
	FaultPkeyThrash   = faultinject.PkeyThrash
	// FaultClusterPolicyPanic attacks the cluster-scope scheduling policy
	// (the clustersched failsafe wrapper) the way FaultPolicyPanic attacks
	// a per-domain policy: the next cluster decision panics (or, with
	// Delay set, burns its cycle budget) and the failsafe swaps to static.
	FaultClusterPolicyPanic = faultinject.ClusterPolicyPanic
)

// Scheduling-policy seam and self-healing types (see DESIGN.md
// "Self-healing and failsafe policies").
type (
	// Policy decides preemption per core per round; plug one into
	// ChaosConfig.Policy or CoreScheduler.Policy.
	Policy = ivessel.Policy
	// PolicyView is what a Policy sees for one core each round.
	PolicyView = ivessel.PolicyView
	// PolicyDecision is a Policy's verdict, including its own decision cost.
	PolicyDecision = ivessel.PolicyDecision
	// RoundRobinPolicy is the minimal always-rotate policy — the failsafe
	// fallback and the chaos-run default.
	RoundRobinPolicy = ivessel.RoundRobinPolicy
	// FairSharePolicy preempts only when siblings are waiting — the
	// core-scheduler default.
	FairSharePolicy = ivessel.FairSharePolicy
	// DomainManager is the per-domain manager a SelfHealCluster hands to
	// worker build functions (programs are assembled against a specific
	// domain's call gates).
	DomainManager = ivessel.Manager
	// FailsafePolicy wraps a Policy with panic recovery and a per-decision
	// cycle budget, swapping atomically to round-robin on the first
	// violation.
	FailsafePolicy = selfheal.Failsafe
	// FailureDetector is the phi-accrual failure detector in virtual time.
	FailureDetector = multidomain.Detector
	// FailureDetectorConfig tunes the detector's threshold and gap floor.
	FailureDetectorConfig = multidomain.DetectorConfig
	// SelfHealConfig parameterises a self-healing cluster.
	SelfHealConfig = selfheal.Config
	// SelfHealCluster supervises domains end to end: failure detection,
	// core fencing, domain restart with state reconciliation, failsafe
	// policy fallback.
	SelfHealCluster = selfheal.Cluster
	// SelfHealReport summarises a self-healing run; its Canonical() bytes
	// are the determinism witness the chaos soak gates on.
	SelfHealReport = selfheal.Report
)

// NewFailureDetector builds a phi-accrual failure detector.
func NewFailureDetector(cfg FailureDetectorConfig) *FailureDetector {
	return multidomain.NewDetector(cfg)
}

// NewFailsafePolicy wraps primary (nil selects round-robin) with panic
// recovery and the given per-decision cycle budget (0 disables).
func NewFailsafePolicy(primary Policy, budgetCycles int64) *FailsafePolicy {
	return selfheal.NewFailsafe(primary, budgetCycles)
}

// NewSelfHealCluster builds a supervised multi-domain cluster.
func NewSelfHealCluster(cfg SelfHealConfig) (*SelfHealCluster, error) {
	return selfheal.New(cfg)
}

// Two-level cluster scheduling types (DESIGN.md §16): the ghOSt-style
// upper level proposing grant/revoke transactions over the NRK-style
// lower level's core-upcall mechanism.
type (
	// ClusterPolicy decides grant/revoke transactions from a ledger view;
	// implementations are fair-share, µs-latency, and static.
	ClusterPolicy = clustersched.Policy
	// ClusterPolicyView is the ledger snapshot a ClusterPolicy decides on.
	ClusterPolicyView = clustersched.View
	// ClusterTxn is one policy decision: moves committed in order.
	ClusterTxn = clustersched.Txn
	// ClusterFailsafe wraps a ClusterPolicy with panic recovery and a
	// per-decision cycle budget, swapping one-way to static on violation.
	ClusterFailsafe = clustersched.Failsafe
	// ClusterPolicySwap records one policy change (hot swap or failsafe
	// takeover).
	ClusterPolicySwap = clustersched.PolicySwap
	// ClusterSchedReport summarises a scheduled-cluster run; its
	// Canonical() bytes are the determinism witness the cluster golden
	// test gates on.
	ClusterSchedReport = clustersched.Report
	// ClusterOp is one committed grant/revoke ledger operation — the
	// record the conformance oracle replays.
	ClusterOp = clustersched.Op
)

// ClusterPolicyNames lists the cluster policies resolvable by name.
func ClusterPolicyNames() []string { return clustersched.Names() }

// NewClusterPolicy resolves a cluster policy by name.
func NewClusterPolicy(name string) (ClusterPolicy, error) { return clustersched.NewNamed(name) }
