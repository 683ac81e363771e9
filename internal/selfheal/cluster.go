// Package selfheal is the cluster-level self-healing layer: the
// supervision part of the multi-domain driver (package multidomain) —
// failure detection over simulated cycles, core fencing, supervised
// domain recovery with full state reconciliation, and a failsafe
// scheduler-policy wrapper. Everything runs in virtual time — same seed,
// same plan, same byte-identical recovery history — so the chaos soak can
// gate on MTTR and post-recovery invariants without wall-clock flakiness.
package selfheal

import (
	"bytes"
	"fmt"

	"vessel/internal/cpu"
	"vessel/internal/faultinject"
	"vessel/internal/mpk"
	"vessel/internal/multidomain"
	"vessel/internal/obs"
	"vessel/internal/obs/journey"
	"vessel/internal/sim"
	"vessel/internal/smas"
	"vessel/internal/stats"
	"vessel/internal/trace"
	"vessel/internal/uproc"
	"vessel/internal/vessel"
)

// Config sizes and tunes a self-healing cluster.
type Config struct {
	// Domains is the number of scheduling domains; CoresPerDomain sizes
	// each domain's machine.
	Domains        int
	CoresPerDomain int
	Costs          *cpu.CostModel
	// Detector tunes the phi-accrual failure detector.
	Detector multidomain.DetectorConfig
	// DetectBudget is the declared ceiling on detection MTTR (silence →
	// fence); RestartBudget is the additional ceiling on a full domain
	// restart. Exceeding either is a reported violation. Defaults:
	// 500µs each.
	DetectBudget  sim.Duration
	RestartBudget sim.Duration
	// PolicyBudgetCycles is the failsafe's per-decision cycle ceiling
	// (default 100k cycles; 0 keeps the default, -1 disables).
	PolicyBudgetCycles int64
	// Primary builds each domain's primary scheduler policy; nil uses
	// round-robin (making the failsafe swap a no-op behaviourally, but
	// still exercised).
	Primary func() vessel.Policy
	// MaxDomainRestarts caps supervised domain resurrections (0 =
	// unlimited); past it the domain is declared dead.
	MaxDomainRestarts int
	// WatchdogSoft/WatchdogHard arm each domain's cycle-budget watchdog
	// when positive.
	WatchdogSoft, WatchdogHard int64
	// EventCap bounds the shared containment event log (a ring: oldest
	// entries are overwritten). Default 1<<15 entries.
	EventCap int
	// VirtualKeys builds every domain (and every restart incarnation)
	// with libmpk-style virtualized protection keys, lifting the 13-key
	// density cap (DESIGN.md §14).
	VirtualKeys bool
	// SLOMaxViolationFrac, when positive and a journey tracer is
	// attached, is the largest acceptable fraction of SLO-violating
	// request journeys; exceeding it at the end of a run is a reported
	// violation — the SLO health signal feeding recovery alongside the
	// phi-accrual detector (DESIGN.md §15). Zero disables the check.
	SLOMaxViolationFrac float64
}

func (c Config) withDefaults() Config {
	if c.Domains <= 0 {
		c.Domains = 1
	}
	if c.CoresPerDomain <= 0 {
		c.CoresPerDomain = 1
	}
	if c.Costs == nil {
		c.Costs = cpu.Default()
	}
	if c.DetectBudget <= 0 {
		c.DetectBudget = 500 * sim.Microsecond
	}
	if c.RestartBudget <= 0 {
		c.RestartBudget = 500 * sim.Microsecond
	}
	if c.PolicyBudgetCycles == 0 {
		c.PolicyBudgetCycles = 100_000
	} else if c.PolicyBudgetCycles < 0 {
		c.PolicyBudgetCycles = 0
	}
	if c.EventCap <= 0 {
		c.EventCap = 1 << 15
	}
	return c
}

// workerSpec is the durable description of one supervised workload — what
// survives a domain restart and lets the supervisor rebuild the worker in
// a fresh incarnation.
type workerSpec struct {
	name string
	// build constructs the program against the current incarnation's
	// manager (gate addresses differ across incarnations).
	build  func(mg *vessel.Manager) *smas.Program
	core   int
	policy vessel.RestartPolicy
}

// domainState is one domain's recovery bookkeeping; its current manager
// incarnation lives in the core.
type domainState struct {
	id       int
	failsafe *Failsafe
	injector *faultinject.Injector
	workers  []workerSpec
	// lastAlive is the last instant any core of the domain beat — the
	// moment the domain went fully dark, for restart MTTR.
	lastAlive  sim.Time
	restarts   int
	dead       bool
	swapLogged bool
}

// beat is one heartbeat observed in the current round.
type beat struct {
	d    *domainState
	core int
}

// Cluster supervises a set of scheduling domains on one shared virtual
// timeline: it drives their cores, feeds the failure detector with
// progress heartbeats, fences cores that stall or fail-stop, restarts
// domains that lose every core (with full state reconciliation), heals
// leaked protection keys, and records MTTR for every recovery. All of it
// is deterministic: same configuration, same fault plans, same seeds —
// byte-identical Report.Canonical output.
type Cluster struct {
	cfg     Config
	core    *multidomain.Core
	obs     *obs.Observer
	domains []*domainState
	// beats collects the current round's heartbeats, applied once the
	// round's clock has settled; quantum is the current Run's.
	beats   []beat
	quantum int
	mttr    *stats.Histogram
	// Counters tallies recovery actions in deterministic order.
	Counters   *stats.Counters
	violations []string
	rounds     int
	started    bool
}

// New builds the cluster on the shared multi-domain core — one engine,
// one (ring) event log, one detector — with per domain a manager, a
// failsafe-wrapped policy, and optionally a watchdog.
func New(cfg Config) (*Cluster, error) {
	cfg = cfg.withDefaults()
	c := &Cluster{
		cfg:      cfg,
		core:     multidomain.New(cfg.Domains, cfg.CoresPerDomain, cfg.Costs, cfg.VirtualKeys, trace.NewRingEventLog(cfg.EventCap), cfg.Detector),
		mttr:     stats.NewHistogram(),
		Counters: stats.NewCounters(),
	}
	for i := 0; i < cfg.Domains; i++ {
		if _, err := c.core.NewManager(i, c.armWatchdog); err != nil {
			return nil, err
		}
		var primary vessel.Policy
		if cfg.Primary != nil {
			primary = cfg.Primary()
		}
		c.domains = append(c.domains, &domainState{
			id:       i,
			failsafe: NewFailsafe(primary, cfg.PolicyBudgetCycles),
		})
	}
	return c, nil
}

// armWatchdog arms a fresh incarnation's cycle-budget watchdog when the
// configuration asks for one.
func (c *Cluster) armWatchdog(mg *vessel.Manager) error {
	if c.cfg.WatchdogSoft > 0 || c.cfg.WatchdogHard > 0 {
		mg.EnableWatchdog(c.cfg.WatchdogSoft, c.cfg.WatchdogHard)
	}
	return nil
}

// Engine exposes the shared engine (for tests and harness wiring).
func (c *Cluster) Engine() *sim.Engine { return c.core.Eng }

// Manager returns a domain's current manager incarnation.
func (c *Cluster) Manager(domain int) *vessel.Manager { return c.core.Manager(domain) }

// Failsafe returns a domain's failsafe policy wrapper.
func (c *Cluster) Failsafe(domain int) *Failsafe { return c.domains[domain].failsafe }

// AttachObs installs an observer for the cluster's recovery overlays
// (fence/recover/failsafe spans, MTTR observations). Cores are numbered
// globally: domain*CoresPerDomain+core.
func (c *Cluster) AttachObs(o *obs.Observer) { c.obs = o }

// AttachJourney installs one request-journey tracer on every domain (and
// every restart incarnation): seam events land in the shared flight
// recorder, and recovery actions — watchdog kills, failsafe swaps,
// domain restarts — snapshot it into black-box dumps carried by the
// report. Nil is a no-op.
func (c *Cluster) AttachJourney(t *journey.Tracer) {
	for d := range c.domains {
		c.core.AttachJourney(d, t)
	}
}

// tracer returns the shared journey tracer (nil if none).
func (c *Cluster) tracer() *journey.Tracer { return c.core.Tracer(0) }

// AddWorker supervises a workload on a domain: build constructs its
// program against whichever manager incarnation is current, so the worker
// survives both uProcess restarts (vessel.Supervise) and whole-domain
// restarts (this package).
func (c *Cluster) AddWorker(domain int, name string, build func(mg *vessel.Manager) *smas.Program, core int, policy vessel.RestartPolicy) error {
	d := c.domains[domain]
	d.workers = append(d.workers, workerSpec{name: name, build: build, core: core, policy: policy})
	_, err := c.core.Manager(domain).Supervise(name, func() *smas.Program { return build(c.core.Manager(domain)) }, core, policy)
	return err
}

// InjectFaults attaches a chaos plan to a domain and wires the domain's
// failsafe as the plan's policy attack surface. The plan dies with the
// incarnation: faults not yet fired when the domain is restarted are
// discarded (and counted).
func (c *Cluster) InjectFaults(domain int, plan faultinject.Plan) *faultinject.Injector {
	d := c.domains[domain]
	d.injector = c.core.Manager(domain).InjectFaults(plan)
	d.injector.AttachPolicy(d.failsafe)
	return d.injector
}

// globalCore flattens (domain, core) for observer spans.
func (c *Cluster) globalCore(d *domainState, core int) int {
	return d.id*c.cfg.CoresPerDomain + core
}

func (c *Cluster) event(now sim.Time, name, detail string) {
	c.core.Events.Record(now, name, detail)
}

func (c *Cluster) violate(now sim.Time, format string, args ...any) {
	v := fmt.Sprintf(format, args...)
	c.violations = append(c.violations, v)
	c.Counters.Inc("selfheal.violation")
	c.event(now, "heal.violation", v)
}

// start boots every domain core and registers it with the detector.
func (c *Cluster) start() error {
	now := c.core.Eng.Now()
	for _, d := range c.domains {
		for core := 0; core < c.cfg.CoresPerDomain; core++ {
			if err := c.core.Manager(d.id).Start(core); err != nil {
				return err
			}
			c.core.Det.Track(c.core.ID(d.id, core), now)
		}
		d.lastAlive = now
	}
	c.started = true
	return nil
}

// Run drives the cluster for steps instructions per core in quanta,
// reacting to failures after every round. It is the cluster-level
// equivalent of vessel.RunChaos, plus detection and recovery.
func (c *Cluster) Run(steps, quantum int) (*Report, error) {
	if quantum <= 0 {
		return nil, fmt.Errorf("selfheal: quantum must be positive")
	}
	if steps < quantum {
		steps = quantum
	}
	if !c.started {
		if err := c.start(); err != nil {
			return nil, err
		}
	}
	// Approximate virtual duration of one idle round, used to keep the
	// clock moving when nothing executes and nothing is queued — the
	// supervisor's own tick, without which a fully wedged cluster would
	// freeze time and blind the detector.
	roundNs := sim.Duration(float64(quantum) / c.cfg.Costs.ClockGHz)
	if roundNs <= 0 {
		roundNs = sim.Microsecond
	}
	rounds := (steps + quantum - 1) / quantum
	c.quantum = quantum
	eng := c.core.Eng
	for round := 0; round < rounds; round++ {
		c.rounds++
		c.beats = c.beats[:0]
		progressed, _, err := c.core.Round((*supervisor)(c), quantum)
		if err != nil {
			return nil, err
		}
		if !progressed {
			if eng.Pending() > 0 {
				eng.Step()
			} else {
				eng.Run(eng.Now().Add(roundNs))
			}
		}
		now := eng.Now()
		for _, b := range c.beats {
			c.core.Det.Beat(c.core.ID(b.d.id, b.core), now)
			b.d.lastAlive = now
		}
		for _, d := range c.domains {
			if d.dead {
				continue
			}
			if d.injector != nil {
				d.injector.Step(now)
			}
			if err := c.core.Manager(d.id).PollSupervised(); err != nil {
				return nil, err
			}
		}
		if err := c.react(now); err != nil {
			return nil, err
		}
	}
	if err := c.drain(); err != nil {
		return nil, err
	}
	c.finalChecks()
	return c.report(), nil
}

// supervisor is the Cluster as the core loop's Part, kept off the
// Cluster's method set. It skips dead domains and fenced cores, beats
// every healthy core — idle ones included, since nothing runnable is not
// a failure — and takes the domain policy's per-core decision after a
// run. Granted-core churn is the ledger's business (its upcall client
// tracks and forgets detector ids); supervised domains own all their
// cores.
type supervisor Cluster

func (s *supervisor) Live(d int) bool        { return !s.domains[d].dead }
func (s *supervisor) Admit(d, core int) bool { return !s.core.Manager(d).CoreFenced(core) }

func (s *supervisor) Idle(d, core int) bool {
	s.beats = append(s.beats, beat{s.domains[d], core})
	return false
}

func (s *supervisor) AfterRun(d, core int, cc *cpu.Core, ran int) error {
	if cc.Fault != nil || cc.Stalled {
		return nil // died or wedged mid-quantum: no beat
	}
	dom := s.domains[d]
	s.beats = append(s.beats, beat{dom, core})
	mg := s.core.Manager(d)
	dec := dom.failsafe.Decide(vessel.PolicyView{
		Core:     core,
		RanFull:  ran == s.quantum,
		QueueLen: len(mg.Domain.Runqueue(core)),
		Idle:     ran == 0,
	})
	cc.Cycles += dec.CostCycles
	if dec.Preempt {
		return mg.Domain.Preempt(core, uproc.SchedCommand{})
	}
	return nil
}

// react is the recovery state machine, run once per round:
//
//	detect (fatal fault, or phi over threshold)
//	  → fence the core (drain to survivors, re-home supervised workers)
//	  → if no cores remain: restart the domain (cancel stale events,
//	    fresh incarnation, re-supervise, reconcile state, check MTTR)
//	live domains additionally get pkey reconciliation (heals leaks) and
//	failsafe-swap bookkeeping.
func (c *Cluster) react(now sim.Time) error {
	for _, d := range c.domains {
		if d.dead {
			continue
		}
		mg := c.core.Manager(d.id)
		m := mg.Machine()
		for core := 0; core < m.NumCores(); core++ {
			if mg.CoreFenced(core) {
				continue
			}
			id := c.core.ID(d.id, core)
			cc := m.Core(core)
			fatal := cc.Fault != nil
			if !fatal && !c.core.Det.Suspect(id, now) {
				continue
			}
			cause := "suspect"
			if fatal {
				cause = "fatal"
			}
			last, _ := c.core.Det.LastBeat(id)
			mttr := now.Sub(last)
			if err := mg.FenceCore(core); err != nil {
				return err
			}
			c.core.Det.Forget(id)
			c.mttr.Record(int64(mttr))
			c.Counters.Inc("selfheal.fence")
			c.event(now, "heal.fence", fmt.Sprintf("domain=%d core=%d cause=%s mttr=%v", d.id, core, cause, mttr))
			if c.obs != nil {
				c.obs.Span(c.globalCore(d, core), last, now, obs.CatFence, cause)
				c.obs.Reg().Observe("selfheal.mttr_ns", int64(mttr))
			}
			if mttr > c.cfg.DetectBudget {
				c.violate(now, "domain %d core %d: detection MTTR %v exceeds budget %v", d.id, core, mttr, c.cfg.DetectBudget)
			}
		}
		if mg.FencedCores() == m.NumCores() {
			if err := c.restartDomain(d, now); err != nil {
				return err
			}
			continue
		}
		c.reconcileKeys(d, now)
		if sw, reason := d.failsafe.Swapped(); sw && !d.swapLogged {
			d.swapLogged = true
			c.Counters.Inc("selfheal.failsafe.swap")
			c.event(now, "heal.failsafe", fmt.Sprintf("domain=%d reason=%s", d.id, reason))
			if c.obs != nil {
				c.obs.Span(c.globalCore(d, 0), now, now, obs.CatFailsafe, reason)
			}
			if tr := c.tracer(); tr != nil {
				tr.Event(now, "heal.failsafe", fmt.Sprintf("domain=%d reason=%s", d.id, reason))
				tr.Dump(now, fmt.Sprintf("heal.failsafe.domain%d", d.id))
			}
		}
	}
	return nil
}

// reconcileKeys frees protection keys that are allocated but owned by no
// region — the PkeyLeak class, and any future lost pkey_free. Ownership is
// judged by SMAS.KeyOwned: a region's key in direct mode, a virtual-key
// table slot in virtual mode (where slots legitimately outnumber what a
// static region index could record); anything else in the app range is a
// leak.
func (c *Cluster) reconcileKeys(d *domainState, now sim.Time) {
	s := c.core.Manager(d.id).Domain.S
	for k := mpk.PKey(1); k < smas.RuntimeKey; k++ {
		if !s.Keys.InUse(k) || s.KeyOwned(k) {
			continue
		}
		if err := s.Keys.Free(k); err == nil {
			c.Counters.Inc("selfheal.pkey.reclaimed")
			c.event(now, "heal.pkey", fmt.Sprintf("domain=%d key=%d", d.id, k))
		}
	}
}

// restartDomain resurrects a domain that lost every core: the old
// incarnation's pending events are cancelled (stale restarts and
// deliveries must not fire into the successor), a fresh manager is built
// on the shared engine, every supervised worker is relaunched, and the new
// state is reconciled against the worker manifest — no leaked keys, no
// lost or duplicated uProcesses.
func (c *Cluster) restartDomain(d *domainState, now sim.Time) error {
	downAt := d.lastAlive
	d.restarts++
	if c.cfg.MaxDomainRestarts > 0 && d.restarts > c.cfg.MaxDomainRestarts {
		d.dead = true
		c.Counters.Inc("selfheal.domain.giveup")
		c.event(now, "heal.giveup", fmt.Sprintf("domain=%d restarts=%d", d.id, d.restarts-1))
		return nil
	}
	cancelled := c.core.Manager(d.id).CancelPending()
	discarded := 0
	if d.injector != nil {
		discarded = d.injector.Pending()
		d.injector = nil
	}
	c.Counters.Add("selfheal.events.cancelled", uint64(cancelled))
	c.Counters.Add("selfheal.injections.discarded", uint64(discarded))
	fresh, err := c.core.NewManager(d.id, c.armWatchdog)
	if err != nil {
		return err
	}
	baseKeys := fresh.Domain.S.Keys.Available()
	for i := range d.workers {
		spec := d.workers[i]
		if _, err := fresh.Supervise(spec.name, func() *smas.Program { return spec.build(c.core.Manager(d.id)) }, spec.core, spec.policy); err != nil {
			return fmt.Errorf("selfheal: relaunching %s in domain %d: %w", spec.name, d.id, err)
		}
	}
	for core := 0; core < c.cfg.CoresPerDomain; core++ {
		if err := fresh.Start(core); err != nil {
			return err
		}
		c.core.Det.Track(c.core.ID(d.id, core), now)
	}
	d.lastAlive = now

	// Reconciliation oracles: the fresh incarnation must account for
	// exactly the supervised manifest — keys, regions, uProcesses. Under
	// virtualized keys more workers can be live than hardware slots, so
	// the allocator's draw-down is the table's resident count and the
	// region census uses the virtual-region index instead of slots.
	s := fresh.Domain.S
	if s.Virtual() {
		if got, want := baseKeys-s.Keys.Available(), s.VKeys.Resident(); got != want {
			c.violate(now, "domain %d restart: %d slots drawn, want %d resident (slot leak across restart)", d.id, got, want)
		}
		if got := s.LiveRegionCount(); got != len(d.workers) {
			c.violate(now, "domain %d restart: %d regions, want %d", d.id, got, len(d.workers))
		}
	} else {
		if got, want := s.Keys.Available(), baseKeys-len(d.workers); got != want {
			c.violate(now, "domain %d restart: %d keys available, want %d (leak across restart)", d.id, got, want)
		}
		if got := len(s.RegionKeys()); got != len(d.workers) {
			c.violate(now, "domain %d restart: %d regions, want %d", d.id, got, len(d.workers))
		}
	}
	if got := len(fresh.Domain.UProcs()); got != len(d.workers) {
		c.violate(now, "domain %d restart: %d uProcesses, want %d (lost or duplicated)", d.id, got, len(d.workers))
	}
	for _, spec := range d.workers {
		if _, ok := fresh.Lookup(spec.name); !ok {
			c.violate(now, "domain %d restart: worker %s lost", d.id, spec.name)
		}
	}
	mttr := now.Sub(downAt)
	c.mttr.Record(int64(mttr))
	c.Counters.Inc("selfheal.domain.restart")
	c.event(now, "heal.restart", fmt.Sprintf("domain=%d n=%d cancelled=%d discarded=%d mttr=%v", d.id, d.restarts, cancelled, discarded, mttr))
	if tr := c.tracer(); tr != nil {
		tr.Event(now, "heal.restart", fmt.Sprintf("domain=%d n=%d mttr=%v", d.id, d.restarts, mttr))
		tr.Dump(now, fmt.Sprintf("heal.restart.domain%d", d.id))
	}
	if c.obs != nil {
		c.obs.Span(c.globalCore(d, 0), downAt, now, obs.CatRecover, fmt.Sprintf("domain=%d", d.id))
		c.obs.Reg().Observe("selfheal.mttr_ns", int64(mttr))
		c.obs.Reg().Inc("selfheal.domain.restarts")
	}
	if budget := c.cfg.DetectBudget + c.cfg.RestartBudget; mttr > budget {
		c.violate(now, "domain %d restart MTTR %v exceeds budget %v", d.id, mttr, budget)
	}
	return nil
}

// drain settles in-flight recovery work (supervised relaunch backoffs) so
// the final oracles judge a quiescent cluster, not one mid-restart.
func (c *Cluster) drain() error {
	for i := 0; i < 8 && c.core.Eng.Pending() > 0; i++ {
		c.core.Eng.RunAll(1 << 20)
		for _, d := range c.domains {
			if d.dead {
				continue
			}
			if err := c.core.Manager(d.id).PollSupervised(); err != nil {
				return err
			}
		}
	}
	return nil
}

// finalChecks runs the post-run conservation oracles: every supervised
// worker of a live domain is either running or has explicitly given up,
// and no live domain holds unaccounted protection keys.
func (c *Cluster) finalChecks() {
	now := c.core.Eng.Now()
	for _, d := range c.domains {
		if d.dead {
			continue
		}
		c.reconcileKeys(d, now)
		mg := c.core.Manager(d.id)
		for _, spec := range d.workers {
			_, ok := mg.Lookup(spec.name)
			_, gaveUp := mg.Supervised(spec.name)
			if !ok && !gaveUp {
				c.violate(now, "domain %d worker %s lost: not running, not given up", d.id, spec.name)
			}
		}
	}
	// SLO health: the journey tracer's windowed violation fraction is a
	// first-class recovery signal — too many tail-violating requests is a
	// breach even when every core kept beating.
	if tr := c.tracer(); tr != nil && c.cfg.SLOMaxViolationFrac > 0 {
		if frac := tr.ViolationFrac(); frac > c.cfg.SLOMaxViolationFrac {
			c.violate(now, "SLO violation fraction %.4f exceeds budget %.4f", frac, c.cfg.SLOMaxViolationFrac)
		}
	}
}

// Report is the outcome of a Run, with a canonical byte rendering as the
// determinism witness.
type Report struct {
	Rounds              int
	Fences              int
	DomainRestarts      int
	DomainsDead         int
	PolicySwaps         int
	PkeysHealed         int
	EventsCancelled     int
	InjectionsDiscarded int
	// MTTR aggregates every recovery's time-to-repair (ns of virtual
	// time): fence detections and domain restarts.
	MTTR stats.Summary
	// Violations are recovery-invariant breaches; an empty list is the
	// pass condition the chaos soak gates on.
	Violations []string
	Counters   *stats.Counters
	Events     *trace.EventLog
	// FlightDumps are the journey flight-recorder snapshots captured at
	// recovery moments (uProcess kills, failsafe swaps, domain
	// restarts); empty without an attached tracer. SLOGood/SLOBad are
	// the tracer's SLO tallies over finished request journeys.
	FlightDumps     []journey.Dump
	SLOGood, SLOBad uint64
}

func (c *Cluster) report() *Report {
	dead := 0
	for _, d := range c.domains {
		if d.dead {
			dead++
		}
	}
	good, bad := c.tracer().SLOCounts()
	return &Report{
		Rounds:              c.rounds,
		Fences:              int(c.Counters.Get("selfheal.fence")),
		DomainRestarts:      int(c.Counters.Get("selfheal.domain.restart")),
		DomainsDead:         dead,
		PolicySwaps:         int(c.Counters.Get("selfheal.failsafe.swap")),
		PkeysHealed:         int(c.Counters.Get("selfheal.pkey.reclaimed")),
		EventsCancelled:     int(c.Counters.Get("selfheal.events.cancelled")),
		InjectionsDiscarded: int(c.Counters.Get("selfheal.injections.discarded")),
		MTTR:                c.mttr.Summarize(),
		Violations:          append([]string(nil), c.violations...),
		Counters:            c.Counters,
		Events:              c.core.Events,
		FlightDumps:         c.tracer().Dumps(),
		SLOGood:             good,
		SLOBad:              bad,
	}
}

// Canonical renders the report deterministically: identical runs produce
// byte-identical output, which is how the chaos soak proves replayability.
func (r *Report) Canonical() []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "rounds=%d fences=%d restarts=%d dead=%d swaps=%d healedkeys=%d cancelled=%d discarded=%d\n",
		r.Rounds, r.Fences, r.DomainRestarts, r.DomainsDead, r.PolicySwaps,
		r.PkeysHealed, r.EventsCancelled, r.InjectionsDiscarded)
	fmt.Fprintf(&b, "mttr: n=%d p50=%d p99=%d max=%d\n", r.MTTR.Count, r.MTTR.P50, r.MTTR.P99, r.MTTR.Max)
	for _, v := range r.Violations {
		fmt.Fprintf(&b, "violation: %s\n", v)
	}
	b.WriteString(r.Counters.String())
	fmt.Fprintf(&b, "events (overwritten=%d):\n", r.Events.Overwritten())
	b.WriteString(r.Events.String())
	// Journey sections render only when a tracer produced data, so the
	// canonical bytes of tracer-less runs are unchanged.
	if r.SLOGood+r.SLOBad > 0 {
		fmt.Fprintf(&b, "slo: good=%d bad=%d frac=%.4f\n",
			r.SLOGood, r.SLOBad, float64(r.SLOBad)/float64(r.SLOGood+r.SLOBad))
	}
	for i, d := range r.FlightDumps {
		fmt.Fprintf(&b, "flight-dump %d:\n", i)
		b.WriteString(d.Text())
	}
	return b.Bytes()
}
