// Package multidomain is the shared core of the multi-domain driver (the
// paper's answer to the 13-key limit, §4.1): one engine, one event log,
// one phi-accrual failure detector, the per-domain managers with their
// journey wiring, the multi-domain round (vessel.Manager.Round on every
// live domain, then one clock sync), and the Launch/Destroy placement
// path. Supervision (selfheal.Cluster) and the grant/revoke ledger
// (vessel.ScheduledCluster) plug into the round as a Part.
package multidomain

import (
	"fmt"

	"vessel/internal/obs/journey"
	"vessel/internal/sim"
	"vessel/internal/trace"
	"vessel/internal/vessel"
)

// Part is the policy a driver plugs into Round: the per-domain round part,
// plus which domains are still driven.
type Part interface {
	vessel.RoundPart
	// Live reports whether domain d is still driven: stepped and clocked.
	Live(d int) bool
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
	mg, err := vessel.NewManagerOn(c.Eng, c.cores, nil)
	if err != nil {
		return nil, err
	}
	if c.virtual {
		if err := mg.Domain.S.EnableVirtualKeys(); err != nil {
			return nil, err
		}
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

// Round runs vessel.Manager.Round on every live domain, then advances the
// engine to the farthest core's executed time, firing due events on the
// way. It reports whether any core retired an instruction and whether the
// clock moved; what an idle round does to the clock is the part's call.
func (c *Core) Round(p Part, quantum int) (progressed, advanced bool, err error) {
	var t sim.Time
	for d, mg := range c.managers {
		if !p.Live(d) {
			continue
		}
		ran, err := mg.Round(d, p, quantum)
		progressed = progressed || ran
		if err != nil {
			return progressed, false, err
		}
		t = max(t, mg.CoreTime())
	}
	if advanced = t > c.Eng.Now(); advanced {
		c.Eng.Run(t)
	}
	return progressed, advanced, nil
}
