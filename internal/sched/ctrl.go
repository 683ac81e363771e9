package sched

import (
	"vessel/internal/sim"
	"vessel/internal/workload"
)

// CtrlPlane is a single-server FIFO control plane that every arriving
// request crosses before its application queue sees it: VESSEL's domain
// scheduler and Caladan's IOKernel, whose saturation caps core scalability
// (Figure 12). The server forwards one request per cost, in arrival order.
//
// Forwarding times strictly increase (each starts no earlier than the
// previous one finished and takes a positive cost), so the forwarding
// events fire in the order they were scheduled. One callback, bound once,
// therefore serves them all by popping a FIFO; each request still gets its
// own engine event, so ties with other events at the same instant break
// exactly as they would with one closure per request.
type CtrlPlane struct {
	eng     *sim.Engine
	cost    sim.Duration
	free    sim.Time      // when the server finishes its accepted work
	q       workload.FIFO // accepted, not yet forwarded
	deliver func(*workload.Request)
	fire    func() // p.forward, bound once
}

// NewCtrlPlane returns a control plane on eng that spends cost (> 0) on
// each request and then calls deliver with it, back on its app's queue.
func NewCtrlPlane(eng *sim.Engine, cost sim.Duration, deliver func(*workload.Request)) *CtrlPlane {
	p := &CtrlPlane{eng: eng, cost: cost, deliver: deliver}
	p.fire = p.forward
	return p
}

// Submit takes a just-arrived request back off its app's queue, where
// Enqueue put it, and holds it until the server has forwarded it.
func (p *CtrlPlane) Submit(req *workload.Request) {
	req.App.StealNewest()
	start := p.eng.Now()
	if p.free > start {
		start = p.free
	}
	p.free = start.Add(p.cost)
	p.q.Requeue(req)
	p.eng.At(p.free, p.fire)
}

func (p *CtrlPlane) forward() {
	req := p.q.Dequeue()
	req.App.Requeue(req)
	p.deliver(req)
}
