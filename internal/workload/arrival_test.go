package workload

import (
	"fmt"
	"testing"

	"vessel/internal/sim"
)

// refGenerate is the reference GenerateArrivals is checked against: the
// same Poisson and burst process, drawing from the same streams, with every
// arrival scheduled as its own event by At.
func refGenerate(a *App, eng *sim.Engine, rng *sim.RNG, until sim.Time, onArrival func(*Request)) {
	g := &arrivalGen{
		app:      a,
		arrivals: rng.Fork(1),
		services: rng.Fork(2),
		bursts:   rng.Fork(3),
		baseGap:  sim.Duration(1e9 / a.RateK),
		factor:   1,
	}
	var fire func()
	schedule := func(at sim.Time) {
		if at <= until {
			eng.At(at, fire)
		}
	}
	fire = func() {
		now := eng.Now()
		for a.Burst != nil && now >= g.phaseEnd {
			g.nextPhase(g.phaseEnd)
		}
		r := a.Arrive(now, a.Dist.Sample(g.services))
		onArrival(r)
		gap := sim.Duration(float64(g.arrivals.Exp(g.baseGap)) / g.factor)
		if gap < 1 {
			gap = 1
		}
		schedule(now.Add(gap))
	}
	g.nextPhase(0)
	schedule(sim.Time(g.arrivals.Exp(g.baseGap)))
}

// refReplay is the reference ReplayArrivals is checked against: one event
// per trace point, all scheduled by At at the call.
func refReplay(a *App, eng *sim.Engine, pts []TracePoint, onArrival func(*Request)) {
	for _, p := range pts {
		eng.At(p.At, func() {
			r := a.Arrive(p.At, p.Service)
			onArrival(r)
		})
	}
}

// arrivalTrace runs seeded arrival streams and returns every arrival and
// every probe event, in firing order, with its time. Mean gaps of a few
// nanoseconds, burst modulation, a replayed trace on a coarse grid, probes
// one and two nanoseconds after each arrival, and a ticker make arrivals
// tie with each other and with other events at the same instants often.
// ref selects the reference generators.
func arrivalTrace(t *testing.T, seed uint64, ref bool) []string {
	t.Helper()
	rng := sim.NewRNG(seed)
	eng := sim.NewEngine()
	const until = 4000
	var log []string
	// The apps share one store and are numbered in it, as in a run.
	var apps []*App
	store := new(Store)
	attach := func(app *App) {
		app.Attach(store, uint32(len(apps)))
		apps = append(apps, app)
	}
	onArrival := func(r *Request) {
		app, now := apps[r.AppIdx], eng.Now()
		log = append(log, fmt.Sprintf("%v arrive %s service=%v", now, app.Name, r.Service))
		for k := sim.Duration(1); k <= 2; k++ {
			eng.At(now.Add(k), func() { log = append(log, fmt.Sprintf("%v probe %s+%d", eng.Now(), app.Name, k)) })
		}
		app.Complete(app.Dequeue(), 0)
	}
	var tick func()
	step := sim.Duration(1 + rng.IntN(3))
	tick = func() {
		log = append(log, fmt.Sprintf("%v tick", eng.Now()))
		if eng.Now() < until {
			eng.After(step, tick)
		}
	}
	eng.At(0, tick)
	for i, n := 0, 1+rng.IntN(3); i < n; i++ {
		app := NewLApp(fmt.Sprint("app", i), Memcached(), 1e9/float64(2+rng.IntN(6)))
		if rng.IntN(2) == 0 {
			app.Burst = &Burst{OnMean: sim.Duration(10 + rng.IntN(40)), OffMean: sim.Duration(10 + rng.IntN(40)), Factor: 1 + 4*rng.Float64()}
		}
		attach(app)
		streams := rng.Fork(uint64(i))
		if ref {
			refGenerate(app, eng, streams, until, onArrival)
		} else if err := app.GenerateArrivals(eng, streams, until, onArrival); err != nil {
			t.Fatal(err)
		}
	}
	replayed := NewLApp("replay", Memcached(), 0)
	attach(replayed)
	var pts []TracePoint
	for at := sim.Time(0); at < until; at = at.Add(sim.Duration(rng.IntN(3)) * 4) {
		pts = append(pts, TracePoint{At: at, Service: sim.Duration(len(pts) + 1)})
	}
	if ref {
		refReplay(replayed, eng, pts, onArrival)
	} else if err := replayed.ReplayArrivals(eng, pts, onArrival); err != nil {
		t.Fatal(err)
	}
	eng.RunAll(1 << 22)
	return log
}

// TestArrivalTimerMatchesHeapEvents: arrivals on one timer per app, under
// the keys At would have taken, fire at the same times and in the same
// order relative to every other event at the same instants as arrivals
// scheduled one heap event each, for the Poisson and burst-modulated
// generator and for a replayed trace.
func TestArrivalTimerMatchesHeapEvents(t *testing.T) {
	for seed := uint64(1); seed <= 30; seed++ {
		want := arrivalTrace(t, seed, true)
		got := arrivalTrace(t, seed, false)
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d events, reference %d", seed, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: event %d is %q, reference %q", seed, i, got[i], want[i])
			}
		}
	}
}

// TestAbandonCountsLikeGenerating: after an app abandons an arrival, its
// process builds no request and fires no event, yet ends where generating
// every arrival would have: the same Offered, the arrival and burst
// streams drawn to the same point, and the burst phase the same. It
// abandons the first, a middle and the last arrival, with and without
// bursts.
func TestAbandonCountsLikeGenerating(t *testing.T) {
	const until = sim.Time(2 * sim.Millisecond)
	for _, burst := range []*Burst{nil, {OnMean: 50 * sim.Microsecond, OffMean: 30 * sim.Microsecond, Factor: 4}} {
		// run generates arrivals up to until and abandons the k-th, or
		// none for k = 0. It returns the app and its arrival callbacks.
		run := func(k uint64) (*App, uint64) {
			eng := sim.NewEngine()
			app := NewLApp("mc", Memcached(), 4e6)
			app.Burst = burst
			var seen uint64
			if err := app.GenerateArrivals(eng, sim.NewRNG(5), until, func(*Request) {
				r := app.Dequeue()
				if seen++; seen == k {
					app.Abandon(r)
					return
				}
				app.Complete(r, 0)
			}); err != nil {
				t.Fatal(err)
			}
			eng.Run(until)
			if eng.Fired() != seen {
				t.Fatalf("k=%d: %d engine events for %d arrivals", k, eng.Fired(), seen)
			}
			return app, seen
		}
		_, n := run(0)
		if n < 1000 {
			t.Fatalf("only %d arrivals", n)
		}
		for _, k := range []uint64{1, n / 2, n} {
			got, seen := run(k)
			want, _ := run(0)
			if seen != k {
				t.Fatalf("burst=%v k=%d: %d arrivals built, want %d", burst != nil, k, seen, k)
			}
			g, w := got.gen, want.gen
			if got.Offered != want.Offered {
				t.Fatalf("burst=%v k=%d: offered %d, generating every arrival offered %d", burst != nil, k, got.Offered, want.Offered)
			}
			if g.phaseEnd != w.phaseEnd || g.inOn != w.inOn || g.factor != w.factor {
				t.Fatalf("burst=%v k=%d: phase (%v, on=%v, ×%v), want (%v, on=%v, ×%v)",
					burst != nil, k, g.phaseEnd, g.inOn, g.factor, w.phaseEnd, w.inOn, w.factor)
			}
			if g.arrivals.Uint64() != w.arrivals.Uint64() || g.bursts.Uint64() != w.bursts.Uint64() {
				t.Fatalf("burst=%v k=%d: the arrival or burst stream was drawn a different number of times", burst != nil, k)
			}
		}
	}
}
