// Package arachne implements the Arachne baseline (Qin et al., OSDI '18):
// core-aware two-level scheduling with a slow core arbiter and a
// dispatcher-centric runtime.
//
// The behaviours that matter for the paper's comparison (§6.2.1):
//
//   - a user-level core arbiter re-estimates each application's core need
//     on a coarse interval (~50 ms) and moves cores through the kernel
//     (~29 µs per move) — far too slow to track µs-scale bursts;
//   - each application routes requests through a dispatcher thread that
//     creates a user thread per request (~1 µs), capping per-app
//     throughput around 1 Mops regardless of core count — the "sharp
//     decline (40% on average)" the paper reports;
//   - granted cores busy-spin when idle rather than being returned,
//     wasting cycles the B-app could use.
package arachne

import (
	"math"

	"vessel/internal/fifo"
	"vessel/internal/obs/journey"
	"vessel/internal/sched"
	"vessel/internal/sim"
	"vessel/internal/workload"
)

// Simulator implements sched.Scheduler with the Arachne model.
type Simulator struct{}

// Name returns "Arachne".
func (Simulator) Name() string { return "Arachne" }

// dispatchCost is the dispatcher's per-request user-thread creation cost.
const dispatchCost = 1 * sim.Microsecond

// workerPickup is a granted worker core's dequeue cost.
const workerPickup = 300 * sim.Nanosecond

// targetUtil is the arbiter's per-core utilisation target when sizing.
const targetUtil = 0.8

type lState struct {
	app *workload.App
	// dispatchQ → dispatcher (serial, 1 µs each) → readyQ → workers.
	dispatchBusy bool
	readyQ       fifo.Queue[uint32] // request handles
	workers      int                // granted worker cores (dispatcher core excluded)
	busyNs       sim.Duration
	windowStart  sim.Time
	// dispatching is the request the dispatcher is creating a thread
	// for until dispatchEnd; dispatched, bound once, hands it on.
	// dispatchBusy keeps at most one pending.
	dispatching *workload.Request
	dispatchEnd sim.Time
	dispatched  func()
}

type core struct {
	id    int
	owner *workload.App // nil = unassigned
	l     *lState       // when owned by an L-app as a worker
	busy  bool
	bFrom sim.Time
	// req is the request being served since reqFrom for reqL; served,
	// bound once, completes it. busy keeps at most one pending.
	req     *workload.Request
	reqFrom sim.Time
	reqL    *lState
	served  func()
}

type run struct {
	sched.Base
	cores []*core
	ls    []*lState
}

// Run executes the workload under the Arachne model.
func (s Simulator) Run(cfg sched.Config) (res sched.Result, err error) {
	r := &run{}
	if err = r.Init(cfg); err != nil {
		return res, err
	}
	for i := 0; i < r.Cfg.Cores; i++ {
		c := &core{id: i}
		c.served = func() { r.served(c) }
		r.cores = append(r.cores, c)
	}
	for _, a := range r.LApps {
		l := &lState{app: a, workers: 1}
		l.dispatched = func() { r.dispatched(l) }
		r.ls = append(r.ls, l)
		if err = r.Arrivals(a, 41, func(*workload.Request) { r.arrived(l) }); err != nil {
			return res, err
		}
	}
	r.Eng.At(0, r.rebalance)
	interval := r.Cfg.Costs.ArachneInterval
	r.Every(sim.Time(interval), interval, r.rebalance)
	r.Eng.Run(r.EndAt)
	return r.collect(), nil
}

func (r *run) setAct(c *core, act sched.Activity) { r.SetAct(c.id, act, c.owner) }

// arrived hands the app's newest request to its dispatcher. The
// dispatcher takes its queue in order, one request per dispatchCost after
// dispatchEnd, and refuses to start one at or after EndAt; a request it
// would reach only then is abandoned, and with it every later arrival of
// the app.
func (r *run) arrived(l *lState) {
	if l.dispatchBusy && r.Elides() &&
		l.dispatchEnd.Add(sim.Duration(l.app.Len()-1)*dispatchCost) >= r.EndAt {
		l.app.Abandon(l.app.StealNewest())
		return
	}
	r.pumpDispatcher(l)
}

// pumpDispatcher runs the app's serial dispatcher: one request at a time,
// 1 µs of user-thread creation each, then hand-off to the ready queue.
func (r *run) pumpDispatcher(l *lState) {
	if l.dispatchBusy || l.app.Len() == 0 || r.Eng.Now() >= r.EndAt {
		return
	}
	l.dispatchBusy = true
	req := l.app.Dequeue()
	// The serial dispatcher's user-thread creation gates the request.
	r.J(req).To(journey.SegGate, r.Eng.Now())
	l.dispatching = req
	l.dispatchEnd = r.Eng.Now().Add(dispatchCost)
	r.Eng.After(dispatchCost, l.dispatched)
}

// dispatched hands the dispatcher's request to the ready queue and starts
// on the next one.
func (r *run) dispatched(l *lState) {
	req := l.dispatching
	l.dispatching = nil
	l.dispatchBusy = false
	// Dispatched: the request now waits in the ready queue for a
	// granted worker core.
	r.J(req).To(journey.SegQueue, r.Eng.Now())
	l.readyQ.Push(req.Handle())
	r.feedWorkers(l)
	r.pumpDispatcher(l)
}

// feedWorkers hands ready requests to idle granted worker cores.
func (r *run) feedWorkers(l *lState) {
	for _, c := range r.cores {
		if l.readyQ.Len() == 0 {
			return
		}
		if c.l == l && !c.busy {
			r.serve(c, l, r.Req(l.readyQ.Pop()))
		}
	}
}

// serve runs one request on a granted worker core.
func (r *run) serve(c *core, l *lState, req *workload.Request) {
	now := r.Eng.Now()
	r.J(req).To(journey.SegRun, now)
	c.busy = true
	r.setAct(c, sched.ActApp)
	dur := workerPickup + sim.Duration(float64(req.Service)*r.BW.Inflation())
	l.busyNs += dur
	c.req, c.reqFrom, c.reqL = req, now, l
	r.Eng.After(dur, c.served)
}

// served completes the core's request, then follows the core's current
// assignment: the next ready request, spinning, or a new owner.
func (r *run) served(c *core) {
	req, l := c.req, c.reqL
	c.req, c.reqL = nil, nil
	r.Served(req, c.reqFrom)
	c.busy = false
	if r.Eng.Now() >= r.EndAt {
		return
	}
	if c.l != l {
		// The arbiter moved this core mid-request; follow its new
		// assignment.
		switch {
		case c.l != nil:
			r.setAct(c, sched.ActRuntime)
			r.feedWorkers(c.l)
		case c.owner != nil:
			r.startB(c)
		default:
			r.setAct(c, sched.ActIdle)
		}
		return
	}
	if l.readyQ.Len() > 0 {
		r.serve(c, l, r.Req(l.readyQ.Pop()))
		return
	}
	// Granted cores spin while idle — Arachne does not return them
	// until the arbiter revokes.
	r.setAct(c, sched.ActRuntime)
}

// rebalance is the arbiter: size each L-app's worker pool to its observed
// utilisation, give the rest to B-apps.
func (r *run) rebalance() {
	now := r.Eng.Now()
	if now >= r.EndAt {
		return
	}
	avail := len(r.cores)
	want := make(map[*lState]int)
	for _, l := range r.ls {
		window := now.Sub(l.windowStart)
		need := 1
		if window > 0 && l.busyNs > 0 {
			util := float64(l.busyNs) / float64(window)
			need = int(math.Ceil(util/targetUtil)) + 1
		}
		if need < 1 {
			need = 1
		}
		// +1 dispatcher core per app.
		if need+1 > avail {
			need = avail - 1
		}
		want[l] = need
		avail -= need + 1
		l.busyNs = 0
		l.windowStart = now
	}
	if avail < 0 {
		avail = 0
	}
	// Tear down everything and reassign (charging reallocation cost on
	// cores that change owner).
	idx := 0
	assign := func(owner *workload.App, l *lState, n int) {
		for i := 0; i < n && idx < len(r.cores); i++ {
			c := r.cores[idx]
			idx++
			changed := c.owner != owner
			if changed {
				r.Reallocs++
				if c.l == nil && c.owner != nil {
					// leaving a B-app
					r.stopB(c)
				}
				c.owner = owner
				c.l = l
				if !c.busy {
					// Charge the kernel move.
					r.setAct(c, sched.ActKernel)
					cc := c
					r.Eng.After(r.Cfg.Costs.ArachneReallocCost, func() {
						if cc.l != nil {
							r.setAct(cc, sched.ActRuntime)
							if cc.l != nil {
								r.feedWorkers(cc.l)
							}
						} else if cc.owner != nil {
							r.startB(cc)
						} else {
							r.setAct(cc, sched.ActIdle)
						}
					})
				}
			}
		}
	}
	for _, l := range r.ls {
		l.workers = want[l]
		assign(l.app, l, want[l]+1) // workers + dispatcher core
	}
	// Remaining cores to B-apps round-robin (first B gets them all when
	// single).
	rem := len(r.cores) - idx
	if len(r.BApps) > 0 && rem > 0 {
		per := rem / len(r.BApps)
		extra := rem % len(r.BApps)
		for i, b := range r.BApps {
			n := per
			if i < extra {
				n++
			}
			assign(b, nil, n)
		}
	} else {
		for ; idx < len(r.cores); idx++ {
			c := r.cores[idx]
			if c.owner != nil && c.l == nil {
				r.stopB(c)
			}
			c.owner = nil
			c.l = nil
			r.setAct(c, sched.ActIdle)
		}
	}
}

// startB begins best-effort occupancy on a core.
func (r *run) startB(c *core) {
	if c.owner == nil || c.l != nil {
		return
	}
	c.bFrom = r.Eng.Now()
	r.BW.Add(c.owner.AvgBW())
	r.setAct(c, sched.ActApp)
}

// stopB ends best-effort occupancy, accruing useful time.
func (r *run) stopB(c *core) {
	if c.owner == nil || c.l != nil {
		return
	}
	r.AccrueB(c.owner, c.bFrom)
	r.BW.Remove(c.owner.AvgBW())
}

// collect finalises accounting.
func (r *run) collect() sched.Result {
	for _, c := range r.cores {
		if c.owner != nil && c.l == nil {
			r.stopB(c)
		}
		// Close the span through setAct so it keeps its occupant label
		// (and reaches the obs timeline/profiler like every other accrual).
		r.setAct(c, r.Act(c.id))
	}
	if o := r.Cfg.Obs; o != nil {
		o.Reg().Add("arachne.switches", r.Switches)
		o.Reg().Add("arachne.reallocs", r.Reallocs)
	}
	return r.Result("Arachne")
}
