package vessel

// This file is the containment/chaos side of the manager (the tentpole of
// the robustness milestone): supervised uProcesses restarted with capped
// exponential backoff in virtual time, and RunChaos, which drives every
// core under time slicing through the shared round (Manager.Round) while a
// faultinject.Injector attacks the domain. The invariants it upholds:
//
//   - a crashing uProcess is killed, its region and protection key are
//     reclaimed (only once no core still runs it), and it is restarted
//     after a backoff — so a crash loop costs bounded pkeys and bounded
//     core time;
//   - an uncontained fault (trusted-runtime crash) fail-stops exactly one
//     core, and the rest of the domain keeps running;
//   - with identical seeds and plans, the whole run — injections, kills,
//     restarts, reclaims — replays identically.

import (
	"fmt"
	"slices"

	"vessel/internal/cpu"
	"vessel/internal/faultinject"
	"vessel/internal/obs"
	"vessel/internal/sim"
	"vessel/internal/smas"
	"vessel/internal/trace"
	"vessel/internal/uproc"
)

// RestartPolicy caps how eagerly a supervised uProcess is relaunched after
// a crash.
type RestartPolicy struct {
	// MaxRestarts caps relaunches; zero means unlimited.
	MaxRestarts int
	// Backoff is the delay in virtual time before the first relaunch;
	// each successive crash doubles it up to MaxBackoff. A healthy
	// uptime longer than MaxBackoff resets the doubling.
	Backoff    sim.Duration
	MaxBackoff sim.Duration
}

func (p RestartPolicy) withDefaults() RestartPolicy {
	if p.Backoff <= 0 {
		p.Backoff = 10 * sim.Microsecond
	}
	if p.MaxBackoff < p.Backoff {
		p.MaxBackoff = 100 * p.Backoff
	}
	return p
}

// supervised tracks one uProcess under a restart policy.
type supervised struct {
	name   string
	build  func() *smas.Program
	core   int
	policy RestartPolicy

	u         *uproc.UProc
	backoff   sim.Duration
	lastStart sim.Time
	restarts  int
	pending   bool // a relaunch event is scheduled
	// relaunch is the handle of the scheduled relaunch, so a domain
	// teardown can cancel it (CancelPending) before the event fires into
	// a manager that no longer exists.
	relaunch sim.Event
	gaveUp   bool
	err      error
}

// event records into the domain's containment log, when attached.
func (mg *Manager) event(name, detail string) {
	mg.Domain.Events.Record(mg.eng.Now(), name, detail)
}

// Events returns the domain's containment event log, creating it on first
// use.
func (mg *Manager) Events() *trace.EventLog {
	if mg.Domain.Events == nil {
		mg.Domain.Events = trace.NewEventLog(1 << 16)
	}
	return mg.Domain.Events
}

// EnableWatchdog arms the domain's per-uProcess cycle-budget watchdog:
// past soft cycles without a voluntary park a thread counts as
// overrunning, past hard cycles its uProcess is killed.
func (mg *Manager) EnableWatchdog(softCycles, hardCycles int64) {
	mg.Domain.Watchdog = &uproc.Watchdog{SoftBudgetCycles: softCycles, HardBudgetCycles: hardCycles}
}

// InjectFaults attaches a fault plan; the injector fires during RunChaos.
// It also ensures the event log exists, so injections are traced.
func (mg *Manager) InjectFaults(plan faultinject.Plan) *faultinject.Injector {
	mg.Events()
	mg.injector = faultinject.New(mg.Domain, plan)
	return mg.injector
}

// Injector returns the attached injector, or nil.
func (mg *Manager) Injector() *faultinject.Injector { return mg.injector }

// Supervise launches a uProcess under a restart policy: when it dies (a
// contained fault, a watchdog kill, or an explicit destroy), its region
// and key are reclaimed and build() is relaunched after the policy's
// backoff in virtual time. build runs per launch, because program images
// are installed fresh each time.
func (mg *Manager) Supervise(name string, build func() *smas.Program, core int, policy RestartPolicy) (*uproc.UProc, error) {
	policy = policy.withDefaults()
	u, err := mg.Launch(name, build(), core)
	if err != nil {
		return nil, err
	}
	mg.Events()
	mg.supervised = append(mg.supervised, &supervised{
		name:      name,
		build:     build,
		core:      core,
		policy:    policy,
		u:         u,
		backoff:   policy.Backoff,
		lastStart: mg.eng.Now(),
	})
	return u, nil
}

// Supervised returns (restarts, gaveUp) for a supervised uProcess.
func (mg *Manager) Supervised(name string) (int, bool) {
	for _, s := range mg.supervised {
		if s.name == name {
			return s.restarts, s.gaveUp
		}
	}
	return 0, false
}

// PollSupervised reclaims dead supervised uProcesses and schedules their
// relaunches: the supervision step RunChaos and selfheal.Cluster take
// after every round. Reclaim happens strictly before relaunch, so a crash
// loop recycles one pkey instead of exhausting the 13-key budget.
func (mg *Manager) PollSupervised() error {
	now := mg.eng.Now()
	for _, s := range mg.supervised {
		if s.pending || s.gaveUp || s.u == nil {
			continue
		}
		if s.u.State != uproc.UProcTerminated {
			// Healthy uptime past the backoff cap resets the doubling,
			// so a uProcess that crashes rarely is not punished forever.
			if now.Sub(s.lastStart) > s.policy.MaxBackoff {
				s.backoff = s.policy.Backoff
			}
			continue
		}
		if mg.Domain.RunningOn(s.u) >= 0 {
			continue // the lazy kill has not landed on every core yet
		}
		if err := mg.Domain.ReclaimRegion(s.u); err != nil {
			return err
		}
		delete(mg.named, s.name)
		if s.policy.MaxRestarts > 0 && s.restarts >= s.policy.MaxRestarts {
			s.gaveUp = true
			mg.event("restart.giveup", fmt.Sprintf("uproc=%s restarts=%d", s.name, s.restarts))
			continue
		}
		backoff := s.backoff
		if s.backoff < s.policy.MaxBackoff {
			s.backoff *= 2
			if s.backoff > s.policy.MaxBackoff {
				s.backoff = s.policy.MaxBackoff
			}
		}
		s.pending = true
		mg.event("restart.schedule", fmt.Sprintf("uproc=%s backoff=%v", s.name, backoff))
		sup := s
		scheduledAt := now
		s.relaunch = mg.eng.After(backoff, func() {
			sup.pending = false
			sup.restarts++
			sup.lastStart = mg.eng.Now()
			u, err := mg.Launch(sup.name, sup.build(), sup.core)
			if err != nil {
				sup.err = err
				sup.gaveUp = true
				mg.event("restart.fail", fmt.Sprintf("uproc=%s err=%v", sup.name, err))
				return
			}
			sup.u = u
			mg.event("restart", fmt.Sprintf("uproc=%s n=%d", sup.name, sup.restarts))
			// The restart span covers schedule→relaunch: the whole
			// backoff window the uProcess spent dead, on its home core.
			if o := mg.Domain.Obs; o != nil {
				o.Span(sup.core, scheduledAt, sup.lastStart, obs.CatRestart, sup.name)
				o.Reg().Inc("vessel.restarts")
			}
			if _, err := mg.Domain.Wake(sup.core); err != nil {
				sup.err = err
			}
		})
	}
	return nil
}

// ChaosConfig drives every core of the domain under time slicing, fault
// injection, the watchdog, and supervised restarts — the chaos-mode
// equivalent of RunTimesliced across the whole machine.
type ChaosConfig struct {
	// Steps is the per-core instruction budget for the run.
	Steps int
	// Quantum is the preemption (and injection/restart polling) interval
	// in instructions.
	Quantum int
}

// ChaosReport summarises a chaos run.
type ChaosReport struct {
	Rounds      int
	Preemptions uint64
	// FatalCores lists cores fail-stopped by uncontained faults, in the
	// order they died.
	FatalCores []int
	// Restarts sums supervised relaunches; WatchdogKills and
	// ContainedFaults summarise the containment paths taken.
	Restarts        int
	WatchdogKills   uint64
	ContainedFaults uint64
}

// RunChaos runs all cores round-robin in fixed quanta, preempting any
// thread that consumed its full quantum. After each round it
// advances the discrete-event clock to the farthest core's cycle time
// (firing restart backoffs), fires due injections, and polls supervised
// uProcesses. Iteration order is fixed, so runs are deterministic.
func (mg *Manager) RunChaos(cfg ChaosConfig) (ChaosReport, error) {
	if cfg.Quantum <= 0 {
		return ChaosReport{}, fmt.Errorf("vessel: quantum must be positive")
	}
	if cfg.Steps < cfg.Quantum {
		cfg.Steps = cfg.Quantum
	}
	p := &chaos{mg: mg, quantum: cfg.Quantum}
	rounds := (cfg.Steps + cfg.Quantum - 1) / cfg.Quantum
	for round := 0; round < rounds; round++ {
		p.rep.Rounds++
		progressed, err := mg.Round(0, p, cfg.Quantum)
		if err != nil {
			return p.rep, err
		}
		if t := mg.CoreTime(); t > mg.eng.Now() {
			mg.eng.Run(t)
		}
		if !progressed && mg.eng.Pending() > 0 {
			// Every core is idle but virtual-time work (a restart
			// backoff, a deferred delivery) is queued: core cycles will
			// never advance the clock, so fire the next event directly
			// or the run would spin its remaining rounds frozen in time.
			mg.eng.Step()
		}
		if mg.injector != nil {
			mg.injector.Step(mg.eng.Now())
		}
		if err := mg.PollSupervised(); err != nil {
			return p.rep, err
		}
	}
	for _, s := range mg.supervised {
		p.rep.Restarts += s.restarts
		if s.err != nil {
			return p.rep, s.err
		}
	}
	if wd := mg.Domain.Watchdog; wd != nil {
		p.rep.WatchdogKills = wd.Kills
	}
	for _, u := range mg.Domain.UProcs() {
		p.rep.ContainedFaults += uint64(u.FaultSignals)
	}
	return p.rep, nil
}

// chaos is RunChaos's round part. It never steps a fenced core or one an
// uncontained fault fail-stopped, and it preempts a thread that ran its
// full quantum, as RoundRobinPolicy decides.
type chaos struct {
	mg      *Manager
	quantum int
	rep     ChaosReport
}

func (p *chaos) Admit(_, core int) bool {
	c := p.mg.m.Core(core)
	switch {
	case p.mg.Domain.Fenced(core):
		return false
	case c.Fault != nil:
		p.markFatal(core)
		return false
	}
	return true
}

func (*chaos) Idle(int, int) bool { return false }

func (p *chaos) AfterRun(_, core int, c *cpu.Core, ran int) error {
	if c.Fault != nil {
		p.markFatal(core) // died during its quantum
		return nil
	}
	if ran == p.quantum {
		if err := p.mg.Domain.Preempt(core, uproc.SchedCommand{}); err != nil {
			return err
		}
		p.rep.Preemptions++
	}
	return nil
}

// markFatal records a fail-stopped core the first time it is seen, so
// FatalCores lists the cores in the order they died.
func (p *chaos) markFatal(core int) {
	if !slices.Contains(p.rep.FatalCores, core) {
		p.rep.FatalCores = append(p.rep.FatalCores, core)
		p.mg.event("fatal.core", fmt.Sprintf("core=%d fault=%v", core, p.mg.m.Core(core).Fault))
	}
}
