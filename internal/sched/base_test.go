package sched

import (
	"testing"

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
