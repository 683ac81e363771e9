package vessel

// Two-level cluster scheduling (DESIGN.md §16): the lower level is the
// mechanism — domains actuate CoreGranted/CoreRevoked upcalls at step
// boundaries, binding executors from per-NUMA caches and re-homing
// runqueues on revoke — and the upper level is a hot-swappable,
// fault-isolated cluster policy proposing grant/revoke transactions
// against the authoritative core ledger (internal/clustersched). This
// file is the driver that runs both levels on one shared virtual
// timeline.

import (
	"fmt"

	"vessel/internal/clustersched"
	"vessel/internal/cpu"
	"vessel/internal/faultinject"
	"vessel/internal/multidomain"
	"vessel/internal/obs"
	"vessel/internal/obs/journey"
	"vessel/internal/sim"
	"vessel/internal/smas"
	"vessel/internal/trace"
	ivessel "vessel/internal/vessel"
)

// SchedClusterConfig sizes a scheduled cluster.
type SchedClusterConfig struct {
	// Domains is the number of scheduling domains competing for cores.
	Domains int
	// Cores is the shared core pool every domain's machine spans; the
	// ledger keeps each pool core online in at most one domain.
	Cores int
	// CoresPerNode fixes the NUMA granularity of the executor caches
	// (≤ 0 treats the whole pool as one node).
	CoresPerNode int
	// Policy names the initial cluster policy (clustersched.Names();
	// empty selects "fairshare"). It always runs wrapped in the failsafe.
	Policy string
	// MinPerDomain / MaxPerDomain bound any domain's granted cores
	// (defaults: 1 / uncapped).
	MinPerDomain int
	MaxPerDomain int
	// PolicyBudgetCycles is the failsafe's per-decision cycle budget; 0
	// disables the budget check (panic isolation stays on).
	PolicyBudgetCycles int64
	// Quantum is instructions per online core per round (default 2000).
	Quantum int
	// ScheduleEvery is rounds between policy decisions (default 4).
	ScheduleEvery int
	// Costs is the machine cost model (nil uses defaults).
	Costs *CostModel
	// SLOTarget, when positive, attaches a request-journey tracer to
	// every domain with this per-request deadline; the tracers'
	// violation fractions feed the policy's per-domain SLO signal.
	SLOTarget Duration
	// JourneySampleEvery records one journey in N (≤ 1 records all).
	JourneySampleEvery int
	// Obs, when non-nil, receives grant/upcall spans (CatGrant/CatUpcall)
	// and failsafe markers.
	Obs *Observer
	// Faults, when non-nil, attaches a deterministic fault plan whose
	// cluster-policy faults target the failsafe wrapper.
	Faults *FaultPlan
}

// ScheduledCluster runs scheduling domains under the two-level cluster
// scheduler: the ledger part of the multi-domain driver — the shared core
// (internal/multidomain) plus one ledger, per-domain upcall actuation,
// and a policy deciding every few rounds.
type ScheduledCluster struct {
	cfg      SchedClusterConfig
	core     *multidomain.Core
	sched    *clustersched.Sched
	failsafe *clustersched.Failsafe
	// managers wraps the core's managers in the public surface.
	managers []*Manager
	clients  []clustersched.Client
	injector *faultinject.Injector

	placement multidomain.Placement
	rounds    int
	// idleRounds counts consecutive no-backlog rounds per domain; a
	// domain yields an idle core only after a full schedule interval of
	// idleness, so bursty arrivals don't thrash grants.
	idleRounds []int
	// transfer tracks cores mid-handoff: revoke actuated, grant pending.
	transfer map[int]coreTransfer
	// swapsSeen / opsSpanned cursor the swap and op streams for
	// flight-recorder and span emission.
	swapsSeen  int
	opsSpanned int
	// SwapDumps collects the flight-recorder dumps taken at each policy
	// swap (hot swaps and failsafe takeovers alike).
	SwapDumps []journey.Dump
}

type coreTransfer struct {
	at   Time
	from int
}

// NewScheduledCluster boots the domains (virtual-keyed, cluster-managed:
// all cores start released) on one shared engine, builds the ledger, and
// bootstraps every domain's first MinPerDomain cores through the normal
// commit/upcall path.
func NewScheduledCluster(cfg SchedClusterConfig) (*ScheduledCluster, error) {
	if cfg.Domains <= 0 {
		return nil, fmt.Errorf("vessel: scheduled cluster needs at least one domain")
	}
	if cfg.Cores < cfg.Domains {
		return nil, fmt.Errorf("vessel: %d cores cannot seed %d domains", cfg.Cores, cfg.Domains)
	}
	if cfg.Policy == "" {
		cfg.Policy = "fairshare"
	}
	if cfg.Quantum <= 0 {
		cfg.Quantum = 2000
	}
	if cfg.ScheduleEvery <= 0 {
		cfg.ScheduleEvery = 4
	}
	if cfg.MaxPerDomain <= 0 {
		// The domains virtualize protection keys, and every online core
		// pins its active uProcess's key to a hardware slot: granting a
		// domain as many cores as app slots wedges the eviction path (all
		// 13 resident keys pinned, so a new region cannot be tagged). Cap
		// any one domain at the slot budget minus one slack slot by
		// default; callers may raise it if their concurrency stays low.
		cfg.MaxPerDomain = smas.MaxUProcs - 1
	}
	primary, err := clustersched.NewNamed(cfg.Policy)
	if err != nil {
		return nil, err
	}
	s := &ScheduledCluster{
		cfg:        cfg,
		core:       multidomain.New(cfg.Domains, cfg.Cores, cfg.Costs, true, trace.NewEventLog(1<<14), multidomain.DetectorConfig{}),
		placement:  multidomain.Placement{},
		idleRounds: make([]int, cfg.Domains),
		transfer:   make(map[int]coreTransfer),
	}
	s.failsafe = clustersched.NewFailsafe(primary, cfg.PolicyBudgetCycles)
	s.sched, err = clustersched.New(clustersched.Config{
		Topo:         clustersched.Topology{Cores: cfg.Cores, CoresPerNode: cfg.CoresPerNode},
		Domains:      cfg.Domains,
		MinPerDomain: cfg.MinPerDomain,
		MaxPerDomain: cfg.MaxPerDomain,
		Events:       s.core.Events,
	}, s.failsafe)
	if err != nil {
		return nil, err
	}
	for d := 0; d < cfg.Domains; d++ {
		mg, err := s.core.NewManager(d, func(mg *ivessel.Manager) error {
			return mg.SetClusterManaged(cfg.CoresPerNode)
		})
		if err != nil {
			return nil, err
		}
		if cfg.SLOTarget > 0 || cfg.JourneySampleEvery > 1 {
			s.core.AttachJourney(d, journey.NewTracer(journey.Config{
				SLOTarget:   cfg.SLOTarget,
				SampleEvery: cfg.JourneySampleEvery,
			}))
		}
		s.managers = append(s.managers, &Manager{inner: mg})
		s.clients = append(s.clients, &domainClient{c: s, domain: d})
	}
	if cfg.Faults != nil {
		s.injector = faultinject.New(s.managers[0].inner.Domain, *cfg.Faults)
		s.injector.AttachClusterPolicy(s.failsafe)
	}
	if _, err := s.sched.Bootstrap(0, s.core.Eng.Now()); err != nil {
		return nil, err
	}
	if err := s.deliverAll(); err != nil {
		return nil, err
	}
	return s, nil
}

// domainClient actuates one domain's upcalls: grants bind a cached
// executor and bring the core online; revokes re-home the runqueue and
// drain a running thread at its next gate. It also keeps the failure
// detector's tracked set congruent with the ledger (granted-core churn)
// and emits the domain-transfer spans.
type domainClient struct {
	c      *ScheduledCluster
	domain int
}

func (dc *domainClient) CoreGranted(core int, at sim.Time) error {
	s := dc.c
	if err := s.managers[dc.domain].GrantCore(core); err != nil {
		return err
	}
	s.core.Det.Track(s.core.ID(dc.domain, core), at)
	if tf, ok := s.transfer[core]; ok {
		delete(s.transfer, core)
		s.cfg.Obs.Span(core, tf.at, at, obs.CatGrant,
			fmt.Sprintf("transfer d%d->d%d", tf.from, dc.domain))
	}
	return nil
}

func (dc *domainClient) CoreRevoked(core int, at sim.Time) (int, error) {
	s := dc.c
	moved, err := s.managers[dc.domain].RevokeCore(core)
	if err != nil {
		return moved, err
	}
	s.core.Det.Forget(s.core.ID(dc.domain, core))
	s.transfer[core] = coreTransfer{at: at, from: dc.domain}
	return moved, nil
}

// deliverAll drains every domain's pending upcalls at the current step
// boundary, then emits the CatUpcall actuation spans (commit→delivery)
// for ops that just landed.
func (s *ScheduledCluster) deliverAll() error {
	now := s.core.Eng.Now()
	for d := range s.managers {
		if _, err := s.sched.Deliver(d, now, s.clients[d]); err != nil {
			return err
		}
	}
	if s.cfg.Obs != nil {
		ops := s.sched.Ops()
		// Ops commit in order but actuate per-domain FIFO; everything up
		// to the first undelivered op is final, so the cursor only has to
		// re-scan the (short) tail behind a held-back grant.
		for i := s.opsSpanned; i < len(ops); i++ {
			op := ops[i]
			if !op.Delivered {
				break
			}
			s.opsSpanned = i + 1
			s.cfg.Obs.Span(op.Core, op.At, op.DeliveredAt, obs.CatUpcall,
				fmt.Sprintf("%s d%d", op.Kind, op.Domain))
		}
	}
	return nil
}

// Launch places a uProcess in the given domain, queued on the online core
// with the shortest runqueue. The build function receives the domain's
// manager, because programs are assembled against its call gates.
func (s *ScheduledCluster) Launch(domain int, name string, build func(*Manager) (*Program, error)) (*UProc, error) {
	if domain < 0 || domain >= len(s.managers) {
		return nil, fmt.Errorf("vessel: domain %d out of range", domain)
	}
	if err := s.placement.Claim(name); err != nil {
		return nil, err
	}
	m := s.managers[domain]
	core, best := -1, 0
	for _, c := range m.inner.OnlineCores() {
		if q := len(m.inner.Domain.Runqueue(c)); core < 0 || q < best {
			core, best = c, q
		}
	}
	if core < 0 {
		return nil, fmt.Errorf("vessel: domain %d holds no online cores", domain)
	}
	prog, err := build(m)
	if err != nil {
		return nil, err
	}
	return s.placement.Launch(name, domain, m.inner, prog, core)
}

// Destroy removes a uProcess, drains its lazy termination to quiescence,
// and reclaims its region and key.
func (s *ScheduledCluster) Destroy(name string) error {
	_, err := s.placement.Destroy(name, s.core.Manager)
	return err
}

// Run drives the cluster for the given number of rounds. Each round:
// deliver pending upcalls at the step boundary, step every online core
// one quantum (waking idle cores so queued work dispatches), sync the
// shared clock, refresh the per-domain demand signals, fire due fault
// injections, and every ScheduleEvery rounds let the policy decide.
func (s *ScheduledCluster) Run(rounds int) error {
	eng := s.core.Eng
	for r := 0; r < rounds; r++ {
		if err := s.deliverAll(); err != nil {
			return err
		}
		_, advanced, err := s.core.Round((*ledger)(s), s.cfg.Quantum)
		if err != nil {
			return err
		}
		if !advanced {
			// No core ran past the clock: tick one quantum's worth so
			// virtual time still advances while idle.
			eng.Run(eng.Now().Add(sim.Duration(s.cfg.Quantum) * sim.Nanosecond))
		}
		now := eng.Now()
		for d, m := range s.managers {
			backlog := m.Backlog()
			viol := 0.0
			if tr := s.core.Tracer(d); tr != nil {
				viol = tr.ViolationFrac()
			}
			s.sched.SetSignals(d, backlog, viol)
			s.autoRequest(d, backlog, now)
		}
		if s.injector != nil {
			s.injector.Step(now)
		}
		s.rounds++
		if s.rounds%s.cfg.ScheduleEvery == 0 {
			s.sched.Schedule(now)
			s.surfaceSwaps()
		}
	}
	return s.deliverAll()
}

// ledger is the ScheduledCluster as the core loop's Part, kept off its
// method set: it steps the cores the ledger grants, runs a halted core's
// quantum even when its wake found nothing, and beats a core only when it
// retired instructions.
type ledger ScheduledCluster

func (l *ledger) Live(int) bool          { return true }
func (l *ledger) Admit(d, core int) bool { return l.managers[d].inner.CoreOnline(core) }
func (l *ledger) Idle(int, int) bool     { return true }

func (l *ledger) AfterRun(d, core int, _ *cpu.Core, ran int) error {
	if ran > 0 {
		l.core.Det.Beat(l.core.ID(d, core), l.core.Eng.Now())
	}
	return nil
}

// autoRequest converts a domain's backlog into RequestCores/YieldCore
// traffic: it asks for enough cores to keep roughly two queued threads
// per core, and yields one idle core after a full schedule interval with
// no backlog.
func (s *ScheduledCluster) autoRequest(d, backlog int, now sim.Time) {
	granted := s.sched.GrantedCount(d)
	if backlog > 0 {
		s.idleRounds[d] = 0
		want := (backlog + 1) / 2
		if deficit := want - granted - s.sched.Want(d); deficit > 0 {
			// Errors are impossible here (domain is in range by
			// construction); ignore deliberately.
			_ = s.sched.RequestCores(d, deficit, now)
		}
		return
	}
	s.idleRounds[d]++
	min := s.cfg.MinPerDomain
	if min <= 0 {
		min = 1
	}
	if s.idleRounds[d] < s.cfg.ScheduleEvery || granted <= min {
		return
	}
	g := s.sched.Granted(d)
	m := s.managers[d]
	for i := len(g) - 1; i >= 0; i-- {
		core := g[i]
		if m.inner.CoreOnline(core) && m.inner.Machine().Core(core).Halted {
			_ = s.sched.YieldCore(d, core, now)
			s.idleRounds[d] = 0
			break
		}
	}
}

// surfaceSwaps pushes newly recorded policy swaps into every domain's
// flight recorder and the span timeline, and snapshots a journey dump per
// swap — the post-incident record of what the cluster was doing when the
// policy changed under it.
func (s *ScheduledCluster) surfaceSwaps() {
	swaps := s.sched.Swaps()
	for ; s.swapsSeen < len(swaps); s.swapsSeen++ {
		sw := swaps[s.swapsSeen]
		detail := fmt.Sprintf("%s->%s: %s", sw.From, sw.To, sw.Reason)
		for d := range s.managers {
			if tr := s.core.Tracer(d); tr != nil {
				tr.Event(sw.At, "cluster.policy.swap", detail)
			}
		}
		for d := range s.managers {
			if tr := s.core.Tracer(d); tr != nil {
				// One dump per swap is the record; every tracer carries the
				// event itself.
				s.SwapDumps = append(s.SwapDumps, tr.Dump(sw.At, "cluster policy swap: "+detail))
				break
			}
		}
		s.cfg.Obs.Mark(0, sw.At, obs.CatFailsafe, "cluster "+detail)
	}
}

// SwapPolicy hot-swaps the cluster policy mid-run. The new policy runs
// wrapped in a fresh failsafe (budget and panic isolation persist across
// swaps), and cluster-policy fault injections retarget the new wrapper.
func (s *ScheduledCluster) SwapPolicy(name, reason string) error {
	p, err := clustersched.NewNamed(name)
	if err != nil {
		return err
	}
	s.failsafe = clustersched.NewFailsafe(p, s.cfg.PolicyBudgetCycles)
	s.sched.SetPolicy(s.failsafe, s.core.Eng.Now(), reason)
	if s.injector != nil {
		s.injector.AttachClusterPolicy(s.failsafe)
	}
	s.surfaceSwaps()
	return nil
}

// Domains returns the number of domains.
func (s *ScheduledCluster) Domains() int { return len(s.managers) }

// Manager returns domain d's manager (to build programs against its
// gates, or inspect its executors).
func (s *ScheduledCluster) Manager(d int) *Manager { return s.managers[d] }

// Tracer returns domain d's journey tracer (nil unless SLOTarget or
// sampling was configured).
func (s *ScheduledCluster) Tracer(d int) *JourneyTracer { return s.core.Tracer(d) }

// Now returns the shared virtual clock.
func (s *ScheduledCluster) Now() Time { return s.core.Eng.Now() }

// Events returns the cluster-wide event log: grants, revokes, swaps,
// containment, and injections interleave on one timeline.
func (s *ScheduledCluster) Events() *EventLog { return s.core.Events }

// Detector returns the phi-accrual failure detector tracking granted
// cores (ids "d<domain>.c<core>").
func (s *ScheduledCluster) Detector() *FailureDetector { return s.core.Det }

// GrantedCount returns how many cores the ledger currently grants d.
func (s *ScheduledCluster) GrantedCount(d int) int { return s.sched.GrantedCount(d) }

// PolicyName returns the active policy's name (failsafe-wrapped).
func (s *ScheduledCluster) PolicyName() string { return s.sched.PolicyName() }

// Sched exposes the cluster scheduler's ledger — the surface the
// conformance oracle replays.
func (s *ScheduledCluster) Sched() *clustersched.Sched { return s.sched }

// Report summarizes the run: moves, actuation latency, transactions,
// swaps, and the final ownership map, with a byte-canonical rendering.
func (s *ScheduledCluster) Report() *ClusterSchedReport { return s.sched.Report() }
