// Package vessel implements VESSEL (§5): the userspace core scheduler built
// on the uProcess abstraction. It contains two connected pieces:
//
//   - Manager (manager.go): the layer-1 control plane over uproc.Domain —
//     creating SMAS, launching uProcesses from programs, and driving
//     the mechanism model (used by the Table 1 microbenchmark and the
//     examples);
//   - Simulator (this file): the layer-2 performance model implementing
//     sched.Scheduler with VESSEL's one-level policy (§4.5): per-core FIFO
//     queues holding threads of *different* applications, a global
//     best-effort queue, sub-µs Uintr preemption of BE cores, and
//     bandwidth-aware core regulation at microsecond granularity.
//
// The switching costs the Simulator charges (VesselParkSwitch ≈ 161 ns,
// VesselPreemptSwitch ≈ 260 ns) are the calibrated equivalents of what the
// layer-1 machine measures instruction-by-instruction.
package vessel

import (
	"vessel/internal/obs"
	"vessel/internal/obs/journey"
	"vessel/internal/sched"
	"vessel/internal/sim"
	"vessel/internal/workload"
)

// Simulator implements sched.Scheduler with VESSEL's one-level policy.
type Simulator struct{}

// Name returns "VESSEL".
func (Simulator) Name() string { return "VESSEL" }

// coreState is a worker core in the layer-2 model.
type coreState struct {
	id int
	// fifo is the per-core FIFO of resident L-app worker threads,
	// rotated on every park (§4.5).
	fifo []*workload.App
	// runningL/runningB describe the current occupant.
	runningL *workload.App
	runningB *workload.App
	busy     bool // an event will fire for this core
	// In-flight request state, for §4.4 priority preemption: the
	// request, its finish event, when it started, the bandwidth
	// inflation it runs under, and the work it had left at the start.
	curReq    *workload.Request
	reqEv     sim.Event
	reqFrom   sim.Time
	reqInflat float64
	reqLeft   sim.Duration
	// next is what the pending switch starts: a request (nextReq), else
	// a BE thread (nextB).
	nextReq *workload.Request
	nextB   *workload.App

	// The core's event callbacks, bound once. busy is set whenever one is
	// scheduled and cleared when it fires (a cancelled finish is replaced
	// by a resume), so at most one is ever pending and the state above
	// belongs to it alone.
	resume func() // a switch or wake-up ended: dispatch from the queues
	begin  func() // a switch ended: start next
	finish func() // curReq completed

	// bStart marks when the current B run began (for useful-time
	// accrual); bPending guards against double preemption.
	bStart    sim.Time
	preempted bool
}

type vesselRun struct {
	sched.Base
	cores []*coreState
	// idle holds the cores that are not busy and run nothing, the cores
	// an arrival may wake.
	idle sched.CoreSet
	// reacting holds the L-apps' single-flight preemption chains, indexed
	// like Cfg.Apps.
	reacting []reaction
	beQ      []*workload.App // global BE queue (entries = schedulable B threads)
	// left holds the unserved work of the requests preemptL put back on
	// their queues, keyed by store handle, until they start again.
	left map[uint32]sim.Duration
}

// reaction is one L-app's preemption chain: at most one look at its queue
// is pending, on a timer that re-arms only from its own callback.
type reaction struct {
	app   *workload.App
	timer sim.Timer // fires r.react(rc)
}

// Run executes the configured workload under VESSEL's scheduler.
func (s Simulator) Run(cfg sched.Config) (res sched.Result, err error) {
	r, err := s.start(cfg)
	if err != nil {
		return res, err
	}
	r.Eng.Run(r.EndAt)
	return r.collect(), nil
}

// start builds the run for cfg and schedules its first events.
func (Simulator) start(cfg sched.Config) (*vesselRun, error) {
	r := &vesselRun{left: make(map[uint32]sim.Duration)}
	if err := r.Init(cfg); err != nil {
		return nil, err
	}
	r.idle = sched.NewCoreSet(r.Cfg.Cores)
	for i := 0; i < r.Cfg.Cores; i++ {
		c := &coreState{id: i}
		// Every L-app has a worker thread resident on every core.
		c.fifo = append(c.fifo, r.LApps...)
		c.resume = func() {
			c.busy = false
			r.serveNext(c)
		}
		c.begin = func() { r.begin(c) }
		c.finish = func() { r.finish(c) }
		r.cores = append(r.cores, c)
		r.idle.Add(i)
	}
	r.reacting = make([]reaction, len(r.Cfg.Apps))
	for i, a := range r.Cfg.Apps {
		if a.Kind == workload.LatencyCritical {
			rc := &r.reacting[i]
			rc.app = a
			r.Eng.Bind(&rc.timer, func() { r.react(rc) })
		}
	}
	// One BE thread per core per B-app in the global queue.
	for i := 0; i < r.Cfg.Cores; i++ {
		for _, b := range r.BApps {
			r.beQ = append(r.beQ, b)
		}
	}
	// Arrival processes. Every request's dispatch signal crosses the
	// domain scheduler — a single FIFO control-plane server whose
	// saturation caps core scalability (Figure 12). On the journey, the
	// dispatch delay counts as queueing: the request is waiting for the
	// scheduler to learn about it.
	var cp *sched.CtrlPlane
	if ctrl := r.Cfg.Costs.VesselCtrlFor(r.Cfg.Cores); ctrl > 0 {
		cp = sched.NewCtrlPlane(&r.Base, ctrl, r.onArrival)
	}
	for _, a := range r.LApps {
		if err := r.Arrivals(a, 7, func(req *workload.Request) {
			if cp == nil {
				r.onArrival(req)
				return
			}
			cp.Submit(req)
		}); err != nil {
			return nil, err
		}
	}
	// Initial fill: give idle cores to BE threads.
	r.Eng.At(0, func() {
		for _, c := range r.cores {
			if !c.busy {
				r.serveNext(c)
			}
		}
	})
	// Bandwidth regulation scan (µs-scale, §6.3.4). Runs only with a
	// configured budget.
	if r.BWCap > 0 {
		r.Every(0, 1*sim.Microsecond, r.regulateBW)
	}
	return r, nil
}

// setAct moves a core into act; the span it closes belongs to the app
// the core runs, L before B.
func (r *vesselRun) setAct(c *coreState, act sched.Activity) {
	occupant := c.runningL
	if occupant == nil {
		occupant = c.runningB
	}
	r.SetAct(c.id, act, occupant)
}

// preemptDelayThreshold is the queueing delay after which the scheduler
// preempts a BE core rather than waiting for a natural completion. VESSEL
// reuses Caladan's queueing-delay metric (§4.5); with sub-µs switches the
// threshold can be tight.
const preemptDelayThreshold = 1 * sim.Microsecond

// onArrival reacts to a new request: wake the lowest-numbered idle core,
// or start a reaction chain for its app that preempts BE cores once
// queueing delay exceeds the threshold.
func (r *vesselRun) onArrival(req *workload.Request) {
	// Prefer an idle core (UMWAIT wake + dispatch).
	if i := r.idle.Next(0); i >= 0 {
		r.wakeIdle(r.cores[i])
		return
	}
	if rc := &r.reacting[req.AppIdx]; !rc.timer.Armed() {
		r.armReaction(rc)
	}
}

// armReaction schedules the scheduler's next look at an app's queue: one
// scan interval plus the Uintr delivery it would take to act.
func (r *vesselRun) armReaction(rc *reaction) {
	cm := r.Cfg.Costs
	rc.timer.After(cm.VesselSchedScan + cm.UintrDeliver)
}

// react is the scheduler's look at app's queue: preempt a core for it once
// its queueing delay crosses the threshold, and keep looking until it
// drains.
func (r *vesselRun) react(rc *reaction) {
	app := rc.app
	cm := r.Cfg.Costs
	now := r.Eng.Now()
	if app.Len() == 0 || now >= r.EndAt {
		return
	}
	if app.QueueDelay(now) >= preemptDelayThreshold {
		preempted := false
		for _, c := range r.cores {
			if c.runningB != nil && !c.preempted {
				r.preemptB(c)
				preempted = true
				break
			}
		}
		// No best-effort core to take: preempt a core serving a
		// strictly lower-priority L-app mid-request (§4.4).
		if !preempted {
			for _, c := range r.cores {
				if c.curReq != nil && c.runningL != nil &&
					c.runningL.Priority < app.Priority {
					r.preemptL(c)
					break
				}
			}
		}
		if preempted && app.Len() > 0 {
			// The head request's dispatch was gated on the user
			// interrupt that just landed: split the last UintrDeliver
			// of its wait retroactively into a uintr segment (the
			// clamp keeps conservation exact if it arrived mid-flight).
			j := r.J(app.Head())
			j.To(journey.SegUintr, now.Add(-cm.UintrDeliver))
			j.To(journey.SegQueue, now)
		}
	}
	// Keep watching until the queue drains: more BE cores may need
	// preempting, or a natural completion may clear it.
	r.armReaction(rc)
}

// wakeIdle dispatches an idle core to serve the L-app queues.
func (r *vesselRun) wakeIdle(c *coreState) {
	cm := r.Cfg.Costs
	c.busy = true
	r.idle.Remove(c.id)
	r.setAct(c, sched.ActSwitch)
	r.Switches++
	r.Eng.After(cm.UmwaitWake+cm.VesselParkSwitch, c.resume)
}

// preemptB stops the BE thread on c (Uintr handler → gate → switch) and
// lets the core pick up L work.
func (r *vesselRun) preemptB(c *coreState) {
	cm := r.Cfg.Costs
	b := c.runningB
	if b == nil {
		return
	}
	c.preempted = true
	r.Preempts++
	r.Reallocs++
	now := r.Eng.Now()
	// The preemption arrived by user interrupt: the reaction timer included
	// one UintrDeliver of flight, so the send→delivery window ends now.
	if o := r.Cfg.Obs; o != nil {
		o.Span(c.id, now.Add(-cm.UintrDeliver), now, obs.CatUintr, b.Name)
		o.Reg().Inc("vessel.uintr.preempt")
	}
	r.AccrueB(b, c.bStart)
	r.BW.Remove(b.AvgBW())
	c.runningB = nil
	c.preempted = false
	// Preempted BE threads go back to the global BE queue (§4.5).
	r.beQ = append(r.beQ, b)
	c.busy = true
	r.setAct(c, sched.ActSwitch)
	r.Switches++
	r.Eng.After(cm.VesselPreemptSwitch, c.resume)
}

// serveNext is the core's dispatch loop: first L work from the per-core
// FIFO (rotating), then a BE thread from the global queue, else idle. It
// takes the core out of r.idle; only its idle exits put it back.
func (r *vesselRun) serveNext(c *coreState) {
	if c.busy {
		return
	}
	r.idle.Remove(c.id)
	now := r.Eng.Now()
	if now >= r.EndAt {
		if c.runningL == nil && c.runningB == nil {
			r.idle.Add(c.id)
		}
		r.setAct(c, sched.ActIdle)
		return
	}
	// Continue the current L app run-to-completion with no switch.
	if c.runningL != nil {
		if req := c.runningL.Dequeue(); req != nil {
			r.startRequest(c, c.runningL, req)
			return
		}
		// Parks: rotate the FIFO so siblings get the core next time.
		c.runningL = nil
	}
	// Scan the per-core FIFO for an L thread with pending work, highest
	// priority first (§4.4); equal priorities keep FIFO rotation order.
	bestPrio := 0
	found := false
	for _, app := range c.fifo {
		if app.Len() > 0 && (!found || app.Priority > bestPrio) {
			bestPrio = app.Priority
			found = true
		}
	}
	if found {
		for i := 0; i < len(c.fifo); i++ {
			app := c.fifo[0]
			c.fifo = append(c.fifo[1:], app)
			if app.Len() > 0 && app.Priority == bestPrio {
				req := app.Dequeue()
				// Switching threads costs one park-path gate trip.
				r.J(req).To(journey.SegGate, now)
				c.busy = true
				c.nextReq = req
				r.setAct(c, sched.ActSwitch)
				r.Switches++
				r.Eng.After(r.Cfg.Costs.VesselParkSwitch, c.begin)
				return
			}
		}
	}
	// No L work anywhere on this core: run best-effort if the bandwidth
	// budget allows.
	for i := 0; i < len(r.beQ); i++ {
		b := r.beQ[i]
		if r.BWCap > 0 && r.BW.Demand()+b.AvgBW() > r.BWCap {
			continue
		}
		r.beQ = append(r.beQ[:i], r.beQ[i+1:]...)
		r.startB(c, b)
		return
	}
	r.idle.Add(c.id)
	r.setAct(c, sched.ActIdle)
}

// startRequest runs one L request (or its preempted remainder)
// run-to-completion.
func (r *vesselRun) startRequest(c *coreState, app *workload.App, req *workload.Request) {
	now := r.Eng.Now()
	work := req.Service
	if left, ok := r.left[req.Handle()]; ok {
		delete(r.left, req.Handle())
		work = left
	}
	c.runningL = app
	c.busy = true
	c.curReq = req
	c.reqFrom = now
	c.reqInflat = r.BW.Inflation()
	c.reqLeft = work
	r.J(req).To(journey.SegRun, now)
	r.setAct(c, sched.ActApp)
	dur := sim.Duration(float64(work)*c.reqInflat) + r.BW.StallNoise(r.RNG)
	c.reqEv = r.Eng.After(dur, c.finish)
}

// finish completes the core's in-flight request and dispatches again.
func (r *vesselRun) finish(c *coreState) {
	req := c.curReq
	c.reqEv = sim.Event{}
	c.curReq = nil
	r.Served(req, c.reqFrom)
	c.busy = false
	r.serveNext(c)
}

// preemptL interrupts a core serving a lower-priority L request (§4.4:
// "preemption happens when a high-priority task is blocked by a
// low-priority one"): the in-flight request's remainder goes back to the
// head of its queue and the core re-dispatches through the gate. A
// request whose work is done, with only its bandwidth stall left to run,
// completes at the preemption instead.
func (r *vesselRun) preemptL(c *coreState) {
	req := c.curReq
	if req == nil || !c.reqEv.Pending() {
		return
	}
	now := r.Eng.Now()
	r.Eng.Cancel(c.reqEv)
	c.reqEv = sim.Event{}
	c.curReq = nil
	if served := sim.Duration(float64(now.Sub(c.reqFrom)) / c.reqInflat); served < c.reqLeft {
		r.left[req.Handle()] = c.reqLeft - served
		r.AppOf(req).RequeueFront(req)
		r.J(req).To(journey.SegQueue, now)
	} else {
		r.Served(req, c.reqFrom)
	}
	c.runningL = nil
	r.Preempts++
	c.busy = true
	r.setAct(c, sched.ActSwitch)
	r.Switches++
	r.Eng.After(r.Cfg.Costs.VesselPreemptSwitch, c.resume)
}

// startB puts a BE thread on the core; it runs until preempted.
func (r *vesselRun) startB(c *coreState, b *workload.App) {
	c.busy = true
	c.nextB = b
	r.setAct(c, sched.ActSwitch)
	r.Switches++
	r.Reallocs++
	r.Eng.After(r.Cfg.Costs.VesselParkSwitch, c.begin)
}

// begin ends a switch by starting what it switched to: the dequeued
// request, else the BE thread, which runs until preempted.
func (r *vesselRun) begin(c *coreState) {
	c.busy = false
	if req := c.nextReq; req != nil {
		c.nextReq = nil
		r.startRequest(c, r.AppOf(req), req)
		return
	}
	b := c.nextB
	c.nextB = nil
	c.runningB = b
	c.bStart = r.Eng.Now()
	r.BW.Add(b.AvgBW())
	r.setAct(c, sched.ActApp)
}

// regulateBW enforces the B-app bandwidth budget at scan granularity:
// preempt BE cores while demand exceeds the budget.
func (r *vesselRun) regulateBW() {
	for r.BW.Demand() > r.BWCap {
		var victim *coreState
		for _, c := range r.cores {
			if c.runningB != nil && !c.preempted {
				victim = c
				break
			}
		}
		if victim == nil {
			return
		}
		r.preemptB(victim)
	}
	// Under budget: idle cores may pick BE work back up. serveNext moves
	// only its own core in or out of r.idle.
	for i := r.idle.Next(0); i >= 0 && len(r.beQ) > 0; i = r.idle.Next(i + 1) {
		r.serveNext(r.cores[i])
	}
}

// collect finalises accounting and builds the result.
func (r *vesselRun) collect() sched.Result {
	for _, c := range r.cores {
		// Close out any running B accrual.
		if c.runningB != nil {
			r.AccrueB(c.runningB, c.bStart)
		}
		// Close the span through setAct so it keeps its occupant label
		// (and reaches the obs timeline/profiler like every other accrual).
		r.setAct(c, r.Act(c.id))
	}
	if o := r.Cfg.Obs; o != nil {
		o.Reg().Add("vessel.switches", r.Switches)
		o.Reg().Add("vessel.preempts", r.Preempts)
		o.Reg().Add("vessel.reallocs", r.Reallocs)
	}
	return r.Result("VESSEL")
}
