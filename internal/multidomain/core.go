// Package multidomain is the shared core of the multi-domain driver (the
// paper's answer to the 13-key limit, §4.1): one engine, one event log,
// one phi-accrual failure detector, the per-domain managers with their
// journey wiring, the core-stepping loop, and the Launch/Destroy
// placement path. Supervision (selfheal.Cluster) and the grant/revoke
// ledger (vessel.ScheduledCluster) plug into the loop as a Part.
package multidomain

import (
	"fmt"

	"vessel/internal/cpu"
	"vessel/internal/obs/journey"
	"vessel/internal/sim"
	"vessel/internal/trace"
	"vessel/internal/vessel"
)

// Part is the policy a driver plugs into the core-stepping loop.
type Part interface {
	// Live reports whether domain d is still driven: stepped and clocked.
	Live(d int) bool
	// Admit reports whether core of domain d steps this round.
	Admit(d, core int) bool
	// Idle is called for a halted core whose wake found nothing to run;
	// it reports whether the core still runs its quantum.
	Idle(d, core int) bool
	// AfterRun is called once the core ran its quantum, retiring ran
	// instructions.
	AfterRun(d, core int, cc *cpu.Core, ran int) error
}

// Core holds the parts every multi-domain driver shares.
type Core struct {
	Eng    *sim.Engine
	Events *trace.EventLog
	Det    *Detector

	cores    int
	virtual  bool
	managers []*vessel.Manager
	tracers  []*journey.Tracer
	// ids[d][core] is the detector id "d<d>.c<core>", built once.
	ids [][]string
}

// New builds the core for domains of cores each, with no managers yet:
// every domain gets its first incarnation through NewManager, on the
// default cost model. virtual selects libmpk-style virtualized protection
// keys (DESIGN.md §14).
func New(domains, cores int, virtual bool, events *trace.EventLog) *Core {
	c := &Core{
		Eng:      sim.NewEngine(),
		Events:   events,
		Det:      NewDetector(),
		cores:    cores,
		virtual:  virtual,
		managers: make([]*vessel.Manager, domains),
		tracers:  make([]*journey.Tracer, domains),
		ids:      make([][]string, domains),
	}
	for d := range c.ids {
		c.ids[d] = make([]string, cores)
		for core := range c.ids[d] {
			c.ids[d][core] = fmt.Sprintf("d%d.c%d", d, core)
		}
	}
	return c
}

// NewManager builds a fresh incarnation of domain d on the shared engine
// and event log and installs it as the domain's manager, in the execution
// mode of the incarnation it replaces. setup (may be nil) configures it
// before the domain's journey tracer attaches.
func (c *Core) NewManager(d int, setup func(*vessel.Manager) error) (*vessel.Manager, error) {
	newOn := vessel.NewManagerOn
	if c.virtual {
		newOn = vessel.NewVirtualManagerOn
	}
	mg, err := newOn(c.Eng, c.cores, nil)
	if err != nil {
		return nil, err
	}
	if prev := c.managers[d]; prev != nil {
		mg.Machine().SetExecMode(prev.Machine().ExecMode()) // a restart keeps its domain's mode
	}
	mg.Domain.Events = c.Events
	if setup != nil {
		if err := setup(mg); err != nil {
			return nil, err
		}
	}
	if c.tracers[d] != nil {
		mg.AttachJourney(c.tracers[d])
	}
	c.managers[d] = mg
	return mg, nil
}

// Manager returns domain d's current incarnation.
func (c *Core) Manager(d int) *vessel.Manager { return c.managers[d] }

// AttachJourney installs t as domain d's request-journey tracer, on the
// current incarnation and every later one. Nil is a no-op.
func (c *Core) AttachJourney(d int, t *journey.Tracer) {
	if t == nil {
		return
	}
	c.tracers[d] = t
	if mg := c.managers[d]; mg != nil {
		mg.AttachJourney(t)
	}
}

// Tracer returns domain d's journey tracer (nil if none).
func (c *Core) Tracer(d int) *journey.Tracer { return c.tracers[d] }

// ID names core of domain d for the detector.
func (c *Core) ID(d, core int) string { return c.ids[d][core] }

// Round steps every admitted core of every live domain one quantum,
// waking a halted core first, then advances the engine to the farthest
// core's executed time, firing due events on the way. It reports whether
// any core retired an instruction and whether the clock moved; what an
// idle round does to the clock is the part's call.
func (c *Core) Round(p Part, quantum int) (progressed, advanced bool, err error) {
	for d, mg := range c.managers {
		if !p.Live(d) {
			continue
		}
		m := mg.Machine()
		for core := 0; core < m.NumCores(); core++ {
			if !p.Admit(d, core) {
				continue
			}
			cc := m.Core(core)
			if cc.Fault != nil || cc.Stalled {
				continue // silent: the detector sees the missing beat
			}
			if cc.Halted {
				ok, err := mg.Domain.Wake(core)
				if err != nil {
					return progressed, false, err
				}
				if !ok && !p.Idle(d, core) {
					continue
				}
			}
			ran := cc.Run(quantum)
			if ran > 0 {
				progressed = true
			}
			if err := p.AfterRun(d, core, cc, ran); err != nil {
				return progressed, false, err
			}
		}
	}
	return progressed, c.syncClock(p), nil
}

// syncClock advances the shared engine to the farthest core's executed
// time across every live domain, reporting whether the clock moved.
func (c *Core) syncClock(p Part) bool {
	var maxNs float64
	for d, mg := range c.managers {
		if !p.Live(d) {
			continue
		}
		m := mg.Machine()
		for i := 0; i < m.NumCores(); i++ {
			if ns := m.NsFor(m.Core(i).Cycles); ns > maxNs {
				maxNs = ns
			}
		}
	}
	if t := sim.Time(maxNs); t > c.Eng.Now() {
		c.Eng.Run(t)
		return true
	}
	return false
}
