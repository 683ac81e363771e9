package sched

import (
	"fmt"
	"testing"

	"vessel/internal/obs"
	"vessel/internal/obs/journey"
	"vessel/internal/sim"
	"vessel/internal/workload"
)

// TestJourneyOnRecycledSlot: under 1-in-2 sampling, each request is
// served as it arrives, so the next one takes its store slot, and the
// slot's requests alternate between sampled and unsampled. A sampled
// request resolves to its own journey, and an unsampled one to none,
// never to the journey of the slot's previous request, which the tracer
// retains.
func TestJourneyOnRecycledSlot(t *testing.T) {
	app := workload.NewLApp("mc", workload.Memcached(), 1e7)
	var b Base
	err := b.Init(Config{
		Cores:    1,
		Duration: 10 * sim.Microsecond,
		Apps:     []*workload.App{app},
		Journey:  journey.NewTracer(journey.Config{SampleEvery: 2, Retain: true}),
	})
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	if err := b.Arrivals(app, 0, func(req *workload.Request) {
		if req.Handle() != 0 {
			t.Fatalf("request %d took slot %d, want the recycled slot 0", n, req.Handle())
		}
		j := b.J(req)
		if sampled := n%2 == 0; sampled && (j == nil || j.Arrive != req.Arrive) {
			t.Fatalf("sampled request %d, arrived at %v, resolves to %+v, want its own journey", n, req.Arrive, j)
		} else if !sampled && j != nil {
			t.Fatalf("unsampled request %d, arrived at %v, resolves to the journey of a request arrived at %v", n, req.Arrive, j.Arrive)
		}
		n++
		app.Dequeue()
		b.Served(req, b.Eng.Now())
	}); err != nil {
		t.Fatal(err)
	}
	b.Eng.Run(b.EndAt)
	if n < 20 {
		t.Fatalf("%d arrivals, want at least 20", n)
	}
}

// TestSetActClipping drives one core through spans before, straddling
// and after the measured interval [100, 200] ns, plus an empty one. The
// breakdown counts only the time inside the interval; the obs timeline
// keeps every non-empty span whole, and the switch span is one
// sched.switch flight event.
func TestSetActClipping(t *testing.T) {
	app := workload.NewLApp("mc", workload.Memcached(), 1)
	var b Base
	err := b.Init(Config{
		Cores:    1,
		Warmup:   100,
		Duration: 100,
		Apps:     []*workload.App{app},
		Obs:      obs.New(0),
		Journey:  journey.New(),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, step := range []struct {
		at       sim.Time
		act      Activity
		occupant *workload.App
	}{
		{0, ActApp, nil},       // closes the empty idle span [0, 0)
		{50, ActApp, app},      // [0, 50) app: before the interval
		{150, ActKernel, app},  // [50, 150) app: straddles its start
		{150, ActSwitch, nil},  // [150, 150) kernel: empty
		{300, ActIdle, nil},    // [150, 300) switch: straddles its end
		{400, ActRuntime, nil}, // [300, 400) idle: after the interval
	} {
		b.Eng.At(step.at, func() { b.SetAct(0, step.act, step.occupant) })
	}
	b.Eng.Run(400)
	if got, want := b.cycles, (CycleBreakdown{AppNs: 50, SwitchNs: 50}); got != want {
		t.Errorf("breakdown = %+v, want %+v", got, want)
	}
	if b.Act(0) != ActRuntime {
		t.Errorf("Act(0) = %v, want runtime", b.Act(0))
	}
	got := fmt.Sprint(b.Cfg.Obs.Spans())
	if want := "[{0 0ns 50ns app mc} {0 50ns 150ns app mc} {0 150ns 300ns switch } {0 300ns 400ns idle }]"; got != want {
		t.Errorf("obs spans = %s, want %s", got, want)
	}
	ev := b.Cfg.Journey.Flight().Events()
	if len(ev) != 1 || ev[0].T != 150 || ev[0].Name != "sched.switch" {
		t.Errorf("flight events = %v, want one sched.switch at 150", ev)
	}
}
