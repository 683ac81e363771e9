// Package cfs implements the Linux baseline of §6.1: every worker thread is
// a CFS entity on a per-core runqueue, the L-app runs at nice −19 and
// B-apps at nice 20 (clamped to 19, the kernel's maximum), and all
// scheduling crosses the kernel.
//
// The model reproduces the mechanics behind the paper's observation that
// CFS sustains throughput at low load but with latencies orders of
// magnitude above the userspace schedulers:
//
//   - every request wakes a sleeping worker through the kernel wakeup path
//     (§2.1: memcached workers "suspend CPU cores frequently");
//   - wakeup preemption of a best-effort thread pays a resched-IPI plus a
//     full kernel context switch;
//   - network receive processing shares cores with the B-app: when the
//     designated receive core is running best-effort work, softirq
//     processing is deferred (NAPI/ksoftirqd competing under load), a
//     heavy-tailed delay calibrated to the paper's >10 ms P999.
package cfs

import (
	"vessel/internal/kernel"
	"vessel/internal/obs/journey"
	"vessel/internal/sched"
	"vessel/internal/sim"
	"vessel/internal/workload"
)

// Simulator implements sched.Scheduler with the CFS model.
type Simulator struct{}

// lNice and bNice are the nice levels of latency-critical and best-effort
// threads: the paper's −19 and the +19 ceiling of nice.
const (
	lNice = -19
	bNice = 19
)

// Name returns "Linux".
func (Simulator) Name() string { return "Linux" }

// softirqMean is the mean of the exponential deferral a request suffers
// when its receive core is occupied by best-effort work.
const softirqMean = 1500 * sim.Microsecond

// reschedLatency is resched-IPI plus interrupt-return before a preemption
// takes effect.
const reschedLatency = 2 * sim.Microsecond

type thread struct {
	ent      *kernel.Entity
	app      *workload.App
	kind     workload.Kind
	core     int
	sleeping bool
	// in-flight request state (L threads).
	req       *workload.Request
	remaining sim.Duration
	// switched and complete are the thread's context-switch and
	// request-completion callbacks, bound once: a thread only ever runs
	// on its own core, so they capture exactly what a per-event closure
	// would.
	switched, complete func()
}

type core struct {
	id       int
	rq       *kernel.Runqueue
	cur      *thread
	curSince sim.Time
	ev       sim.Event
	// pendingRx is the core's receive ring: requests whose softirq
	// processing has not run yet; rxFlush is the pending softirq event.
	pendingRx []uint32 // request handles
	rxFlush   sim.Event
	// viaSwitch marks a dispatch reached through the kernel context
	// switch, so the switched-in request's journey can attribute the
	// crossing to its gate segment.
	viaSwitch bool

	// The core's event callbacks, bound once: flush is pending only
	// while rxFlush is, and onArrival schedules it only when rxFlush is
	// not pending; sliceEnd reads nothing but the core.
	flush, sliceEnd func()
}

type run struct {
	sched.Base
	k     *kernel.Kernel
	cores []*core
	// workers[app] lists the app's threads across cores.
	workers map[*workload.App][]*thread
	homeRR  int
	entID   int
}

// Run executes the workload under the CFS model.
func (Simulator) Run(cfg sched.Config) (res sched.Result, err error) {
	r := &run{workers: make(map[*workload.App][]*thread)}
	if err = r.Init(cfg); err != nil {
		return res, err
	}
	r.k = kernel.New(r.Eng, r.Cfg.Costs)
	for i := 0; i < r.Cfg.Cores; i++ {
		c := &core{id: i, rq: kernel.NewRunqueue()}
		c.flush = func() { r.flushRx(c) }
		c.sliceEnd = func() {
			c.ev = sim.Event{}
			r.stopCurrent(c, false)
			r.schedule(c)
		}
		r.cores = append(r.cores, c)
	}
	for _, a := range r.Cfg.Apps {
		nice := bNice
		if a.Kind == workload.LatencyCritical {
			nice = lNice
		}
		for i := 0; i < r.Cfg.Cores; i++ {
			th := &thread{
				ent:  kernel.NewEntity(r.entID, nice),
				app:  a,
				kind: a.Kind,
				core: i,
			}
			r.entID++
			th.ent.UserData = th
			c := r.cores[i]
			th.switched = func() {
				c.viaSwitch = true
				r.dispatch(c, th)
			}
			th.complete = func() {
				c.ev = sim.Event{}
				r.completeRequest(c, th)
			}
			r.workers[a] = append(r.workers[a], th)
			if a.Kind == workload.LatencyCritical {
				th.sleeping = true // wakes on demand
			} else {
				r.cores[i].rq.Enqueue(th.ent, false)
			}
		}
	}
	for _, a := range r.LApps {
		if err = r.Arrivals(a, 29, func(*workload.Request) { r.onArrival(a) }); err != nil {
			return res, err
		}
	}
	r.Eng.At(0, func() {
		for _, c := range r.cores {
			r.schedule(c)
		}
	})
	r.Eng.Run(r.EndAt)
	return r.collect(), nil
}

func (r *run) setAct(c *core, act sched.Activity) {
	var occupant *workload.App
	if c.cur != nil {
		occupant = c.cur.app
	}
	r.SetAct(c.id, act, occupant)
}

// onArrival models the receive path: RSS steers the packet to a
// round-robin receive core, where it sits in that core's receive ring until
// the core's softirq processing runs. A core running best-effort work
// defers softirq processing heavy-tailed (NAPI budget exhaustion pushes
// work to ksoftirqd, which competes with the B-app); a core that is idle or
// running the L-app processes it promptly. Each core's ring is flushed as a
// batch — packets on one core cannot be rescued by another core's softirq.
func (r *run) onArrival(app *workload.App) {
	home := r.cores[r.homeRR%len(r.cores)]
	r.homeRR++
	req := app.StealNewest()
	if req == nil {
		return
	}
	// The packet sits in the receive ring until softirq processing runs:
	// dataplane time on the journey.
	r.J(req).To(journey.SegData, r.Eng.Now())
	home.pendingRx = append(home.pendingRx, req.Handle())
	if home.rxFlush.Pending() {
		return // this core's softirq is already scheduled; batch behind it
	}
	var deferral sim.Duration
	if home.cur != nil && home.cur.kind == workload.BestEffort {
		deferral = r.RNG.Exp(softirqMean)
		if deferral > 20*sim.Millisecond {
			deferral = 20 * sim.Millisecond
		}
	}
	home.rxFlush = r.Eng.After(deferral+r.Cfg.Costs.CFSWakeupCost, home.flush)
}

// flushRx is the core's softirq bottom half: release every buffered
// request to its app queue and wake workers.
func (r *run) flushRx(c *core) {
	c.rxFlush = sim.Event{}
	apps := make([]*workload.App, 0, 2)
	for _, h := range c.pendingRx {
		req := r.Req(h)
		app := r.AppOf(req)
		r.J(req).To(journey.SegQueue, r.Eng.Now())
		app.Requeue(req)
		seen := false
		for _, a := range apps {
			if a == app {
				seen = true
				break
			}
		}
		if !seen {
			apps = append(apps, app)
		}
	}
	c.pendingRx = c.pendingRx[:0]
	for _, a := range apps {
		r.wake(a)
	}
}

// wake makes one sleeping worker of app runnable and applies wakeup
// preemption against a best-effort current.
func (r *run) wake(app *workload.App) {
	if r.Eng.Now() >= r.EndAt {
		return
	}
	var w *thread
	for _, th := range r.workers[app] {
		if th.sleeping {
			w = th
			break
		}
	}
	if w == nil {
		return // all workers awake; the queue drains through them
	}
	w.sleeping = false
	c := r.cores[w.core]
	c.rq.Enqueue(w.ent, true)
	if c.cur == nil {
		r.schedule(c)
		return
	}
	if c.cur.kind == workload.BestEffort && c.rq.ShouldPreempt(w.ent) {
		r.preempt(c)
	}
}

// preempt interrupts the current thread after the resched latency.
func (r *run) preempt(c *core) {
	cur := c.cur
	r.Preempts++
	r.Eng.After(reschedLatency, func() {
		if c.cur != cur || c.cur == nil {
			return // already switched
		}
		r.stopCurrent(c, false)
		r.schedule(c)
	})
}

// stopCurrent accounts the current thread's run and returns it to the
// runqueue (or leaves it off if blocked).
func (r *run) stopCurrent(c *core, blocked bool) {
	cur := c.cur
	if cur == nil {
		return
	}
	now := r.Eng.Now()
	r.Eng.Cancel(c.ev)
	c.ev = sim.Event{}
	ran := now.Sub(c.curSince)
	c.rq.Account(ran)
	if cur.kind == workload.BestEffort {
		r.AccrueB(cur.app, c.curSince)
		r.BW.Remove(cur.app.AvgBW())
	} else if cur.req != nil {
		// Partial service: remember the remainder.
		done := sim.Duration(float64(ran) / r.BW.Inflation())
		if done > cur.remaining {
			done = cur.remaining
		}
		cur.remaining -= done
		// The preempted request waits on the runqueue with its thread.
		r.J(cur.req).To(journey.SegQueue, now)
	}
	if blocked {
		c.rq.Retire()
		cur.sleeping = true
	} else {
		c.rq.PutPrev()
	}
	c.cur = nil
}

// schedule picks the next entity on a core and runs it.
func (r *run) schedule(c *core) {
	now := r.Eng.Now()
	if now >= r.EndAt {
		r.setAct(c, sched.ActIdle)
		return
	}
	ent := c.rq.PickNext()
	if ent == nil {
		c.cur = nil
		r.setAct(c, sched.ActIdle)
		return
	}
	th := ent.UserData.(*thread)
	// Kernel context switch cost.
	r.Switches++
	r.setAct(c, sched.ActKernel)
	c.cur = th
	r.Eng.After(r.Cfg.Costs.CFSSwitchCost, th.switched)
}

// dispatch starts the picked thread's run.
func (r *run) dispatch(c *core, th *thread) {
	now := r.Eng.Now()
	viaSwitch := c.viaSwitch
	c.viaSwitch = false
	if c.cur != th {
		return
	}
	c.curSince = now
	if th.kind == workload.BestEffort {
		r.BW.Add(th.app.AvgBW())
		r.setAct(c, sched.ActApp)
		c.ev = r.Eng.After(c.rq.Timeslice(), c.sliceEnd)
		return
	}
	// L worker: continue an in-flight request or take the next one.
	if th.req == nil {
		req := th.app.Dequeue()
		if req == nil {
			// Nothing to do: block.
			c.rq.Account(now.Sub(c.curSince))
			c.rq.Retire()
			th.sleeping = true
			c.cur = nil
			r.schedule(c)
			return
		}
		th.req = req
		th.remaining = req.Service
	}
	if viaSwitch {
		// The kernel context switch gated this request's (re)dispatch:
		// attribute it retroactively (clamped if the request arrived or
		// was queued mid-switch).
		r.J(th.req).To(journey.SegGate, now.Add(-r.Cfg.Costs.CFSSwitchCost))
	}
	r.J(th.req).To(journey.SegRun, now)
	r.setAct(c, sched.ActApp)
	dur := sim.Duration(float64(th.remaining)*r.BW.Inflation()) + r.BW.StallNoise(r.RNG)
	slice := c.rq.Timeslice()
	if dur <= slice {
		c.ev = r.Eng.After(dur, th.complete)
	} else {
		c.ev = r.Eng.After(slice, c.sliceEnd)
	}
}

// completeRequest finishes th's request and continues with the app queue.
func (r *run) completeRequest(c *core, th *thread) {
	now := r.Eng.Now()
	r.Served(th.req, c.curSince)
	th.req = nil
	th.remaining = 0
	c.rq.Account(now.Sub(c.curSince))
	c.curSince = now
	if now >= r.EndAt {
		return
	}
	// Serve the queue run-to-completion while we still hold the core.
	r.dispatch(c, th)
}

// collect finalises accounting.
func (r *run) collect() sched.Result {
	for _, c := range r.cores {
		if c.cur != nil && c.cur.kind == workload.BestEffort {
			r.AccrueB(c.cur.app, c.curSince)
		}
		// Close the span through setAct so it keeps its occupant label
		// (and reaches the obs timeline/profiler like every other accrual).
		r.setAct(c, r.Act(c.id))
	}
	if o := r.Cfg.Obs; o != nil {
		o.Reg().Add("cfs.switches", r.Switches)
		o.Reg().Add("cfs.preempts", r.Preempts)
	}
	return r.Result("Linux")
}
