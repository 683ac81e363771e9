// Package caladan reimplements Caladan's two-level scheduling policy
// (Fried et al., OSDI '20) with the Delay Range refinement (McClure et al.,
// NSDI '22) on the shared simulated machine, as the paper's primary
// comparator (§2.1, §6).
//
// The policy, as the paper characterises it:
//
//   - cores are *owned* by one application at a time; the IOKernel grants
//     and revokes them at a 10 µs decision interval (§4.5);
//   - an idle core first busy-polls/steals within its application for at
//     least 2 µs before parking (§4.5);
//   - parking and handing a core to another application crosses the kernel:
//     2.1 µs on the voluntary path (Table 1), 5.3 µs when a running task
//     must be preempted (Figure 3);
//   - Delay Range trades CPU efficiency against tail latency by requiring
//     an application's queueing delay to exceed a threshold before the
//     IOKernel reallocates a core: DR-L ≈ 0.5–1 µs, DR-H ≈ 1–4 µs (Fig. 9).
package caladan

import (
	"vessel/internal/obs/journey"
	"vessel/internal/sched"
	"vessel/internal/sim"
	"vessel/internal/workload"
)

// Variant selects the Delay Range configuration.
type Variant int

// The paper's three Caladan configurations.
const (
	Plain  Variant = iota // grant on any queued work
	DRLow                 // Delay Range 0.5–1 µs
	DRHigh                // Delay Range 1–4 µs
)

// Simulator implements sched.Scheduler with Caladan's policy.
type Simulator struct {
	Variant Variant
}

// Name identifies the variant.
func (s Simulator) Name() string {
	switch s.Variant {
	case DRLow:
		return "Caladan-DR-L"
	case DRHigh:
		return "Caladan-DR-H"
	default:
		return "Caladan"
	}
}

// grantThreshold returns the queueing delay above which the IOKernel
// reallocates a core to the app.
func (s Simulator) grantThreshold() sim.Duration {
	switch s.Variant {
	case DRLow:
		return 750 // mid of 0.5–1 µs
	case DRHigh:
		return 2500 // mid of 1–4 µs
	default:
		return 1
	}
}

type coreMode uint8

const (
	modeFree coreMode = iota // owned by the IOKernel, idle
	modeServeL
	modePollL // in the steal window, burning runtime cycles
	modeRunB
	modeTransition
)

type core struct {
	id    int
	mode  coreMode
	owner *workload.App // L or B app owning the core
	// grantedAt lets the victim-selection prefer the longest holder.
	grantedAt sim.Time
	pollEnd   sim.Event
	bStart    sim.Time
	// grantD remembers the kernel cost of the grant that just handed
	// this core over, so the first request served afterwards can
	// attribute that crossing to its journey's gate segment.
	grantD sim.Duration
	// req is the request being served since reqFrom (modeServeL).
	req     *workload.Request
	reqFrom sim.Time

	// The core's serving callbacks, bound once. finish is pending only
	// in modeServeL and parkNow only in modePollL, and a core leaves
	// either mode only when its event fires or is cancelled, so at most
	// one of them is ever pending and req belongs to it alone.
	finish  func()
	parkNow func()
}

type run struct {
	sched.Base
	v     Simulator
	cores []*core
	// polling holds the cores in modePollL, whatever app owns them.
	polling sched.CoreSet
	// bwSampled is the IOKernel's view of bandwidth demand, refreshed
	// only at its 10 µs decision ticks. Grant decisions between ticks
	// act on this stale sample — the control-loop coarseness that makes
	// Caladan's regulation overshoot (§6.3.4).
	bwSampled float64
}

// Run executes the workload under Caladan's policy.
func (s Simulator) Run(cfg sched.Config) (res sched.Result, err error) {
	r, err := s.start(cfg)
	if err != nil {
		return res, err
	}
	r.Eng.Run(r.EndAt)
	return r.collect(), nil
}

// start builds the run for cfg and schedules its first events.
func (s Simulator) start(cfg sched.Config) (*run, error) {
	r := &run{v: s}
	if err := r.Init(cfg); err != nil {
		return nil, err
	}
	r.polling = sched.NewCoreSet(r.Cfg.Cores)
	for i := 0; i < r.Cfg.Cores; i++ {
		c := &core{id: i, mode: modeFree}
		c.finish = func() { r.finish(c) }
		c.parkNow = func() {
			c.pollEnd = sim.Event{}
			r.parkCore(c)
		}
		r.cores = append(r.cores, c)
	}
	// Every packet traverses the IOKernel before it reaches an
	// application queue — the single-server control plane whose
	// saturation caps Caladan at ~34 cores (Figure 12).
	var cp *sched.CtrlPlane
	if ctrl := r.Cfg.Costs.CaladanCtrlFor(r.Cfg.Cores); ctrl > 0 {
		cp = sched.NewCtrlPlane(&r.Base, ctrl, func(req *workload.Request) {
			r.J(req).To(journey.SegQueue, r.Eng.Now())
			r.onArrival(r.AppOf(req))
		})
	}
	for _, a := range r.LApps {
		if err := r.Arrivals(a, 13, func(req *workload.Request) {
			if cp == nil {
				r.onArrival(a)
				return
			}
			// The packet is inside the IOKernel until the control-plane
			// server forwards it: dataplane time on the journey.
			r.J(req).To(journey.SegData, r.Eng.Now())
			cp.Submit(req)
		}); err != nil {
			return nil, err
		}
	}
	// IOKernel decision loop.
	r.Every(0, r.Cfg.Costs.CaladanReallocMs, r.iokernel)
	return r, nil
}

// setMode moves c to mode m, keeping r.polling in step.
func (r *run) setMode(c *core, m coreMode) {
	if m == modePollL {
		r.polling.Add(c.id)
	} else if c.mode == modePollL {
		r.polling.Remove(c.id)
	}
	c.mode = m
}

func (r *run) setAct(c *core, act sched.Activity) { r.SetAct(c.id, act, c.owner) }

// onArrival: a polling core of the same app picks the request up
// immediately; otherwise the request waits for a completion or for the
// IOKernel's next decision tick.
func (r *run) onArrival(app *workload.App) {
	if c := r.pollingCore(app); c != nil {
		r.Eng.Cancel(c.pollEnd)
		c.pollEnd = sim.Event{}
		r.serveL(c, app)
	}
}

// pollingCore returns app's lowest-numbered core in its steal window, or
// nil if it has none.
func (r *run) pollingCore(app *workload.App) *core {
	for i := r.polling.Next(0); i >= 0; i = r.polling.Next(i + 1) {
		if c := r.cores[i]; c.owner == app {
			return c
		}
	}
	return nil
}

// serveL runs requests run-to-completion on an L-owned core.
func (r *run) serveL(c *core, app *workload.App) {
	req := app.Dequeue()
	if req == nil {
		c.grantD = 0
		r.startPolling(c, app)
		return
	}
	now := r.Eng.Now()
	if c.grantD > 0 {
		// The kernel crossing that granted this core gated the request's
		// dispatch: attribute it retroactively (the clamp keeps the
		// identity exact if the request arrived mid-grant).
		r.J(req).To(journey.SegGate, now.Add(-c.grantD))
		c.grantD = 0
	}
	r.J(req).To(journey.SegRun, now)
	r.setMode(c, modeServeL)
	c.req = req
	c.reqFrom = now
	r.setAct(c, sched.ActApp)
	dur := sim.Duration(float64(req.Service)*r.BW.Inflation()) + r.BW.StallNoise(r.RNG)
	r.Eng.After(dur, c.finish)
}

// finish completes the core's request and serves the app's next one.
func (r *run) finish(c *core) {
	req, app := c.req, r.AppOf(c.req)
	c.req = nil
	r.Served(req, c.reqFrom)
	if r.Eng.Now() >= r.EndAt {
		return
	}
	r.serveL(c, app)
}

// startPolling begins the 2 µs steal window: the core spins inside its app
// looking for work before giving the core back (§4.5).
func (r *run) startPolling(c *core, app *workload.App) {
	r.setMode(c, modePollL)
	r.setAct(c, sched.ActRuntime)
	c.pollEnd = r.Eng.After(r.Cfg.Costs.CaladanStealWin, c.parkNow)
}

// parkCore executes the voluntary yield: a kernel crossing, after which the
// core belongs to the IOKernel and is immediately handed to a B-app if one
// wants it.
func (r *run) parkCore(c *core) {
	r.setMode(c, modeTransition)
	c.owner = nil
	r.setAct(c, sched.ActKernel)
	r.Switches++
	r.Eng.After(r.Cfg.Costs.CaladanParkPath, func() {
		r.setMode(c, modeFree)
		r.setAct(c, sched.ActIdle)
		r.grantFreeCore(c)
	})
}

// grantFreeCore reacts to a core becoming free: the IOKernel notices free
// cores within its polling loop (only *reallocation of busy cores* is
// limited to the 10 µs interval), so an L-app past its Delay Range
// threshold gets it immediately; otherwise a B-app harvests it.
func (r *run) grantFreeCore(c *core) {
	if c.mode != modeFree || r.Eng.Now() >= r.EndAt {
		return
	}
	thr := r.v.grantThreshold()
	now := r.Eng.Now()
	var best *workload.App
	var bestDelay sim.Duration
	for _, app := range r.LApps {
		if d := app.QueueDelay(now); d >= thr && d > bestDelay {
			best = app
			bestDelay = d
		}
	}
	if best != nil {
		r.transition(c, best, r.Cfg.Costs.CaladanParkPath)
		return
	}
	r.grantFreeCoreToB(c)
}

// grantFreeCoreToB hands a free core to a best-effort app (respecting the
// bandwidth budget).
func (r *run) grantFreeCoreToB(c *core) {
	if c.mode != modeFree || r.Eng.Now() >= r.EndAt {
		return
	}
	for _, b := range r.BApps {
		if r.BWCap > 0 && r.bwSampled+b.AvgBW() > r.BWCap {
			continue
		}
		r.setMode(c, modeRunB)
		c.owner = b
		c.grantedAt = r.Eng.Now()
		c.bStart = r.Eng.Now()
		r.BW.Add(b.AvgBW())
		r.setAct(c, sched.ActApp)
		return
	}
}

// stopB accrues and removes the B occupancy of a core.
func (r *run) stopB(c *core) {
	r.AccrueB(c.owner, c.bStart)
	r.BW.Remove(c.owner.AvgBW())
	c.owner = nil
}

// iokernel is the 10 µs decision loop: grant cores to L-apps whose queueing
// delay exceeds the Delay Range threshold, preferring free cores, then
// B-cores (preemption), then — for dense L-on-L colocation — cores of
// L-apps holding more than their share.
func (r *run) iokernel() {
	now := r.Eng.Now()
	if now >= r.EndAt {
		return
	}
	// Refresh the bandwidth sample the inter-tick grant path uses.
	r.bwSampled = r.BW.Demand()
	thr := r.v.grantThreshold()
	for _, app := range r.LApps {
		if app.QueueDelay(now) < thr {
			continue
		}
		// Skip if the app already has a polling core about to pick the
		// work up (it will, at the poll boundary).
		if r.pollingCore(app) != nil {
			continue
		}
		r.grantCore(app)
	}
	// Hand remaining free cores to best-effort apps.
	for _, c := range r.cores {
		if c.mode == modeFree {
			r.grantFreeCoreToB(c)
		}
	}
	// Bandwidth regulation at IOKernel granularity: revoke B cores while
	// over budget.
	if r.BWCap > 0 {
		for r.BW.Demand() > r.BWCap {
			victim := r.pickBVictim()
			if victim == nil {
				break
			}
			r.preemptToFree(victim)
		}
	}
}

// grantCore moves one core to app, preferring free > B > over-provisioned L.
func (r *run) grantCore(app *workload.App) {
	// Free core: wake + kernel switch into the app's kProcess.
	for _, c := range r.cores {
		if c.mode == modeFree {
			r.transition(c, app, r.Cfg.Costs.CaladanParkPath)
			return
		}
	}
	// Preempt a best-effort core: the full Figure 3 path.
	if victim := r.pickBVictim(); victim != nil {
		r.stopB(victim)
		r.transition(victim, app, r.Cfg.Costs.CaladanReallocTotal())
		r.Preempts++
		return
	}
	// Dense colocation: preempt another L-app's core. Choose the app
	// holding the most cores; prefer a polling core, else a serving one.
	var victim *core
	bestCount := 0
	counts := make(map[*workload.App]int)
	for _, c := range r.cores {
		if c.owner != nil && c.owner.Kind == workload.LatencyCritical {
			counts[c.owner]++
		}
	}
	for _, c := range r.cores {
		if c.owner == nil || c.owner == app || c.owner.Kind != workload.LatencyCritical {
			continue
		}
		if c.mode != modePollL && c.mode != modeServeL {
			continue
		}
		n := counts[c.owner]
		better := n > bestCount || (n == bestCount && victim != nil && victim.mode == modeServeL && c.mode == modePollL)
		if victim == nil || better {
			victim = c
			bestCount = n
		}
	}
	if victim == nil {
		return
	}
	r.Eng.Cancel(victim.pollEnd)
	victim.pollEnd = sim.Event{}
	if victim.mode == modeServeL {
		// The in-flight request finishes on the new owner's dime in
		// real Caladan (the preempted thread is rescheduled); model the
		// preemption as taking effect after the current request, which
		// the completion handler does naturally — so just mark: here we
		// only preempt polling cores to keep request execution simple.
		return
	}
	r.transition(victim, app, r.Cfg.Costs.CaladanReallocTotal())
	r.Preempts++
}

// pickBVictim returns a B-owned core, preferring the longest holder.
func (r *run) pickBVictim() *core {
	var victim *core
	for _, c := range r.cores {
		if c.mode == modeRunB {
			if victim == nil || c.grantedAt < victim.grantedAt {
				victim = c
			}
		}
	}
	return victim
}

// preemptToFree revokes a B core without granting it (bandwidth policy).
func (r *run) preemptToFree(c *core) {
	r.stopB(c)
	r.setMode(c, modeTransition)
	r.setAct(c, sched.ActKernel)
	r.Preempts++
	r.Switches++
	r.Eng.After(r.Cfg.Costs.CaladanParkPath, func() {
		r.setMode(c, modeFree)
		r.setAct(c, sched.ActIdle)
	})
}

// transition moves a core to an L-app with the given kernel cost.
func (r *run) transition(c *core, app *workload.App, cost sim.Duration) {
	r.setMode(c, modeTransition)
	c.owner = app
	c.grantedAt = r.Eng.Now()
	r.setAct(c, sched.ActKernel)
	r.Switches++
	r.Reallocs++
	r.Eng.After(cost, func() {
		if r.Eng.Now() >= r.EndAt {
			return
		}
		c.grantD = cost
		r.serveL(c, app)
	})
}

// collect finalises accounting.
func (r *run) collect() sched.Result {
	for _, c := range r.cores {
		// Close the span through setAct (before stopB clears the owner) so
		// it keeps its occupant label and reaches the obs layer.
		r.setAct(c, r.Act(c.id))
		if c.mode == modeRunB {
			r.stopB(c)
		}
	}
	if o := r.Cfg.Obs; o != nil {
		o.Reg().Add("caladan.switches", r.Switches)
		o.Reg().Add("caladan.preempts", r.Preempts)
		o.Reg().Add("caladan.reallocs", r.Reallocs)
	}
	return r.Result(r.v.Name())
}
