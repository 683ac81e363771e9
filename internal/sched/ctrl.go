package sched

import (
	"vessel/internal/fifo"
	"vessel/internal/sim"
	"vessel/internal/workload"
)

// CtrlPlane is a single-server FIFO control plane that every arriving
// request crosses before its application queue sees it: VESSEL's domain
// scheduler and Caladan's IOKernel, whose saturation caps core scalability
// (Figure 12). The server forwards one request per cost, in arrival order.
//
// Only the head request's forward is pending, on one engine timer. Submit
// reserves each request's engine key (sim.Engine.Reserve) when it
// arrives, and each forward arms the timer for the next request under
// that key, so ties with other events at the same instant break exactly
// as if every forward had been scheduled on arrival, while the engine
// holds one timer per control plane however deep the backlog grows, and
// no forward goes through the event heap.
//
// The server's next free slot only moves later, so once a request's
// forward would fall after EndAt, no later one can come before it: the
// plane closes, and that request and every later one of any of its apps
// is released unserved (workload.App.Abandon), on a run that elides them
// (Base.Elides).
type CtrlPlane struct {
	b    *Base
	cost sim.Duration
	// q holds the handles of the accepted requests not yet forwarded, and
	// keys the engine key reserved for each, in the same order. The
	// head's forward is pending.
	q       fifo.Queue[uint32]
	keys    fifo.Queue[uint64]
	deliver func(*workload.Request)
	timer   sim.Timer // fires p.forward
	headAt  sim.Time  // when the head's forward fires
	closed  bool
}

// NewCtrlPlane returns a control plane on b's engine that spends cost
// (> 0) on each request of b's apps and then calls deliver with it, back
// on its app's queue.
func NewCtrlPlane(b *Base, cost sim.Duration, deliver func(*workload.Request)) *CtrlPlane {
	p := &CtrlPlane{b: b, cost: cost, deliver: deliver}
	b.Eng.Bind(&p.timer, p.forward)
	return p
}

// Submit takes a just-arrived request back off its app's queue, where
// App.Arrive put it, and holds it until the server has forwarded it, or
// abandons it if the server cannot forward it by EndAt. A forward at
// EndAt itself still fires.
func (p *CtrlPlane) Submit(req *workload.Request) {
	app := p.b.AppOf(req)
	app.StealNewest()
	if p.closed || p.b.Elides() && p.nextAt() > p.b.EndAt {
		p.closed = true
		app.Abandon(req)
		return
	}
	p.q.Push(req.Handle())
	p.keys.Push(p.b.Eng.Reserve())
	if p.q.Len() == 1 {
		p.schedule()
	}
}

// schedule arms the forward of the head request. The server turns to it
// now: it is idle as the request is submitted, or the request before it
// is just leaving.
func (p *CtrlPlane) schedule() {
	p.headAt = p.b.Eng.Now().Add(p.cost)
	p.timer.AtSeq(p.headAt, p.keys.Head())
}

// nextAt returns when the server would forward a request submitted now.
func (p *CtrlPlane) nextAt() sim.Time {
	if n := p.q.Len(); n > 0 {
		return p.headAt.Add(sim.Duration(n) * p.cost)
	}
	return p.b.Eng.Now().Add(p.cost)
}

func (p *CtrlPlane) forward() {
	req := p.b.Req(p.q.Pop())
	p.keys.Pop()
	if p.q.Len() > 0 {
		p.schedule()
	}
	p.b.AppOf(req).Requeue(req)
	p.deliver(req)
}
