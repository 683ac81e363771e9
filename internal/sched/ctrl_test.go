package sched

import (
	"fmt"
	"testing"

	"vessel/internal/fifo"
	"vessel/internal/sim"
	"vessel/internal/workload"
)

// refCtrlPlane is the reference CtrlPlane is checked against: the same
// single FIFO server, with one engine event scheduled per accepted request
// at Submit.
type refCtrlPlane struct {
	b       *Base
	cost    sim.Duration
	free    sim.Time // when the server finishes its accepted work
	q       fifo.Queue[uint32]
	deliver func(*workload.Request)
}

func (p *refCtrlPlane) Submit(req *workload.Request) {
	p.b.AppOf(req).StealNewest()
	start := max(p.b.Eng.Now(), p.free)
	p.free = start.Add(p.cost)
	p.q.Push(req.Handle())
	p.b.Eng.At(p.free, func() {
		req := p.b.Req(p.q.Pop())
		p.b.AppOf(req).Requeue(req)
		p.deliver(req)
	})
}

type submitter interface{ Submit(*workload.Request) }

// newCtrl builds a control plane for a run's apps.
type newCtrl func(b *Base, cost sim.Duration, deliver func(*workload.Request)) submitter

// testBase returns the run core a control plane needs outside a run: an
// engine, apps numbered in one request store, and no horizon (EndAt is
// sim.MaxTime), so every request is served.
func testBase(apps ...*workload.App) *Base {
	b := &Base{Eng: sim.NewEngine(), Cfg: Config{Apps: apps}, EndAt: sim.MaxTime}
	b.attachApps()
	return b
}

// ctrlTrace runs a seeded arrival stream through a control plane built by
// mk and returns every delivery and every probe event, in firing order,
// with its time, and the requests its apps were offered. Arrivals and
// probes fall on a grid of the control-plane cost, so they tie with
// forwards and with each other often; the load swings between idle and
// several times the server's capacity, so the backlog both builds and
// drains. A slow control plane instead receives each app's requests half
// a cost apart on average, at any instant, so its backlog builds for the
// whole run while the head is forwarded. With cut 0 the run has no
// horizon; with cut 1 or 2 it ends (EndAt) a third or two thirds of the
// way to the last arrival.
func ctrlTrace(t *testing.T, seed uint64, slow bool, cut int, mk newCtrl) ([]string, uint64) {
	t.Helper()
	rng := sim.NewRNG(seed)
	cost := sim.Duration(1 + rng.IntN(8))
	if slow {
		cost += 8
	}
	var log []string
	apps := make([]*workload.App, 1+rng.IntN(3))
	for i := range apps {
		apps[i] = workload.NewLApp(fmt.Sprint("app", i), workload.Memcached(), 0)
	}
	b := testBase(apps...)
	eng := b.Eng
	cp := mk(b, cost, func(req *workload.Request) {
		app := b.AppOf(req)
		log = append(log, fmt.Sprintf("%v deliver %s service=%v", eng.Now(), app.Name, req.Service))
		// The app serves the request at once, and it is released for
		// reuse by a later arrival.
		if got := app.Dequeue(); got != req {
			t.Fatalf("delivered request is not the head of its app's queue")
		}
		app.Complete(req, 0)
	})
	var id sim.Duration
	var last sim.Time
	for _, app := range apps {
		var pts []workload.TracePoint
		at := sim.Time(0)
		for i := 0; i < 300; i++ {
			switch {
			case slow:
				at = at.Add(sim.Duration(rng.IntN(int(cost))))
			case rng.IntN(4) == 0:
				// Bursts of same-instant arrivals, then gaps.
				at = at.Add(sim.Duration(rng.IntN(12)) * cost)
			}
			id++
			pts = append(pts, workload.TracePoint{At: at, Service: id})
		}
		last = max(last, at)
		if err := app.ReplayArrivals(eng, pts, func(req *workload.Request) {
			// Submit may abandon the request, which clears it.
			now, svc := eng.Now(), req.Service
			cp.Submit(req)
			// Probes one and two costs out tie with this request's forward
			// if the server is idle, and with others' if it is not.
			for k := sim.Duration(1); k <= 2; k++ {
				eng.At(now.Add(k*cost), func() { log = append(log, fmt.Sprintf("%v probe %v+%d", eng.Now(), svc, k)) })
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	var tick func()
	tick = func() {
		log = append(log, fmt.Sprintf("%v tick", eng.Now()))
		if len(log) < 5000 {
			eng.After(cost, tick)
		}
	}
	eng.At(0, tick)
	if cut == 0 {
		eng.RunAll(1 << 20)
	} else {
		b.EndAt = sim.Time(int64(last) * int64(cut) / 3)
		eng.Run(b.EndAt)
	}
	var offered uint64
	for _, app := range apps {
		offered += app.Offered
	}
	return log, offered
}

// depthProbe is a CtrlPlane that records its deepest backlog and checks
// that its key ring stays in step with its handle queue.
type depthProbe struct {
	*CtrlPlane
	t    *testing.T
	peak int
}

func (d *depthProbe) Submit(req *workload.Request) {
	d.CtrlPlane.Submit(req)
	if d.keys.Len() != d.q.Len() {
		d.t.Fatalf("%d reserved keys for %d queued requests", d.keys.Len(), d.q.Len())
	}
	d.peak = max(d.peak, d.q.Len())
}

// TestCtrlPlaneMatchesPerRequestEvents: keeping only the head's forward in
// the engine, under keys reserved at Submit, delivers the same requests at
// the same times, in the same order relative to every other event at the
// same instants, as scheduling one event per request. A slow control
// plane's backlog reaches at least 64 requests while its head is
// forwarded, so its key ring wraps and grows from 8 slots at least three
// times.
func TestCtrlPlaneMatchesPerRequestEvents(t *testing.T) {
	for _, slow := range []bool{false, true} {
		for seed := uint64(1); seed <= 30; seed++ {
			probe := ctrlDiff(t, seed, slow, 0)
			if slow && probe.peak < 64 {
				t.Fatalf("seed %d: a slow control plane's backlog peaked at %d requests, want at least 64", seed, probe.peak)
			}
		}
	}
}

// ctrlDiff runs ctrlTrace's seeded trace through a CtrlPlane and through
// refCtrlPlane, which serves every request, and fails t unless both
// deliver the same requests at the same times in the same order among
// all other events, and offer the same requests. It returns the plane.
func ctrlDiff(t *testing.T, seed uint64, slow bool, cut int) *depthProbe {
	t.Helper()
	want, wantOffered := ctrlTrace(t, seed, slow, cut, func(b *Base, cost sim.Duration, deliver func(*workload.Request)) submitter {
		return &refCtrlPlane{b: b, cost: cost, deliver: deliver}
	})
	probe := &depthProbe{t: t}
	got, offered := ctrlTrace(t, seed, slow, cut, func(b *Base, cost sim.Duration, deliver func(*workload.Request)) submitter {
		probe.CtrlPlane = NewCtrlPlane(b, cost, deliver)
		return probe
	})
	if len(got) != len(want) {
		t.Fatalf("slow=%v seed %d cut %d: %d events, reference %d", slow, seed, cut, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("slow=%v seed %d cut %d: event %d is %q, reference %q", slow, seed, cut, i, got[i], want[i])
		}
	}
	if offered != wantOffered {
		t.Fatalf("slow=%v seed %d cut %d: %d requests offered, reference %d", slow, seed, cut, offered, wantOffered)
	}
	return probe
}

// TestCtrlPlaneCutoffMatchesReference: with a horizon, the plane abandons
// each request it cannot forward by EndAt, and every later one, yet up to
// the horizon it delivers exactly what a plane serving every request
// delivers, with every other event in the same order, and offers as
// many requests. A slow plane's deep backlog always reaches the cutoff;
// the bursty one must reach it on some seeds.
func TestCtrlPlaneCutoffMatchesReference(t *testing.T) {
	for _, slow := range []bool{false, true} {
		for cut := 1; cut <= 2; cut++ {
			closed := 0
			for seed := uint64(1); seed <= 30; seed++ {
				probe := ctrlDiff(t, seed, slow, cut)
				if probe.closed {
					closed++
				} else if slow {
					t.Fatalf("seed %d cut %d: a slow control plane never reached its cutoff", seed, cut)
				}
			}
			if closed == 0 {
				t.Fatalf("slow=%v cut %d: no seed reached the cutoff", slow, cut)
			}
			t.Logf("slow=%v cut %d: %d of 30 seeds closed the plane", slow, cut, closed)
		}
	}
}

// TestCtrlPlaneDropsReplayedArrivals: a replayed trace has no generator
// to stop, so after the plane closes, Abandon only releases each request
// and every later replayed arrival is dropped at Submit. Ten requests at
// time 0, cost 3, horizon 10: the forwards at 3, 6 and 9 fire, the fourth
// would come at 12 and closes the plane, and each dropped request's slot
// serves the next arrival.
func TestCtrlPlaneDropsReplayedArrivals(t *testing.T) {
	const cost, n = 3, 10
	app := workload.NewLApp("mc", workload.Memcached(), 0)
	b := testBase(app)
	b.EndAt = 10
	var delivered []sim.Time
	cp := NewCtrlPlane(b, cost, func(req *workload.Request) {
		delivered = append(delivered, b.Eng.Now())
		app.Complete(app.Dequeue(), 0)
	})
	pts := make([]workload.TracePoint, n)
	for i := range pts {
		pts[i].Service = sim.Duration(i + 1)
	}
	var handles []uint32
	if err := app.ReplayArrivals(b.Eng, pts, func(req *workload.Request) {
		handles = append(handles, req.Handle())
		cp.Submit(req)
	}); err != nil {
		t.Fatal(err)
	}
	b.Eng.Run(b.EndAt)
	if fmt.Sprint(delivered) != "[3ns 6ns 9ns]" || !cp.closed {
		t.Fatalf("delivered at %v, closed %v; want deliveries at 3, 6 and 9 ns and a closed plane", delivered, cp.closed)
	}
	if fmt.Sprint(handles) != "[0 1 2 3 3 3 3 3 3 3]" {
		t.Fatalf("arrivals took handles %v, want 0 1 2 3 and then the dropped 3 again", handles)
	}
	if app.Offered != n || app.Len() != 0 || cp.q.Len() != 0 {
		t.Fatalf("offered %d, %d queued at the app and %d at the plane; want %d, 0 and 0", app.Offered, app.Len(), cp.q.Len(), n)
	}
}

// TestCtrlPlaneHeapStaysShallow: a 10k-deep backlog holds one engine
// event, where one event per accepted request held 10k, and is still
// forwarded one request per cost, in order.
func TestCtrlPlaneHeapStaysShallow(t *testing.T) {
	const n, cost = 10_000, 3
	app := workload.NewLApp("mc", workload.Memcached(), 0)
	b := testBase(app)
	eng := b.Eng
	next := sim.Duration(0)
	cp := NewCtrlPlane(b, cost, func(req *workload.Request) {
		if next++; req.Service != next || eng.Now() != sim.Time(next*cost) {
			t.Fatalf("request %v forwarded at %v, want request %v at %v",
				req.Service, eng.Now(), next, sim.Time(next*cost))
		}
		app.Complete(app.Dequeue(), 0)
	})
	for i := 1; i <= n; i++ {
		cp.Submit(app.Arrive(0, sim.Duration(i)))
	}
	if p := eng.Pending(); p != 1 {
		t.Fatalf("a %d-deep backlog holds %d engine events, want 1", n, p)
	}
	eng.RunAll(n)
	if next != n || eng.HighWaterPending() != 1 {
		t.Fatalf("forwarded %d of %d requests, event heap peaked at %d", next, n, eng.HighWaterPending())
	}
}
