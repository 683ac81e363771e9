package workload

import (
	"math"
	"testing"

	"vessel/internal/fifo"
	"vessel/internal/sim"
)

func TestTPCCQuantiles(t *testing.T) {
	// The paper characterises Silo/TPC-C by a 20µs median and 280µs
	// P999; the calibrated distribution must hit both.
	r := sim.NewRNG(1)
	d := Silo()
	n := 300000
	samples := make([]sim.Duration, n)
	for i := range samples {
		samples[i] = d.Sample(r)
	}
	below20, below280 := 0, 0
	for _, s := range samples {
		if s < 20*sim.Microsecond {
			below20++
		}
		if s < 280*sim.Microsecond {
			below280++
		}
	}
	if f := float64(below20) / float64(n); math.Abs(f-0.5) > 0.01 {
		t.Fatalf("median fraction = %.3f", f)
	}
	if f := float64(below280) / float64(n); math.Abs(f-0.999) > 0.001 {
		t.Fatalf("P999 fraction = %.4f", f)
	}
	if d.Mean() < 20*sim.Microsecond || d.Mean() > 40*sim.Microsecond {
		t.Fatalf("TPCC mean = %v", d.Mean())
	}
}

func TestMemcachedDist(t *testing.T) {
	d := Memcached()
	if d.Mean() != sim.Microsecond {
		t.Fatalf("mean = %v", d.Mean())
	}
	r := sim.NewRNG(2)
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		sum += float64(d.Sample(r))
	}
	if avg := sum / n; math.Abs(avg-1000) > 30 {
		t.Fatalf("sampled mean = %.1f ns", avg)
	}
}

func TestFixedDist(t *testing.T) {
	d := FixedDist{D: 5 * sim.Microsecond}
	r := sim.NewRNG(3)
	if d.Sample(r) != 5*sim.Microsecond || d.Mean() != 5*sim.Microsecond {
		t.Fatal("fixed dist broken")
	}
}

func TestPoissonArrivalRate(t *testing.T) {
	eng := sim.NewEngine()
	app := NewLApp("mc", Memcached(), 1_000_000) // 1 Mops
	var count int
	if err := app.GenerateArrivals(eng, sim.NewRNG(4), sim.Time(100*sim.Millisecond), func(r *Request) {
		count++
	}); err != nil {
		t.Fatal(err)
	}
	eng.Run(sim.Time(100 * sim.Millisecond))
	// Expect ~100k arrivals in 100ms at 1 Mops.
	if count < 95_000 || count > 105_000 {
		t.Fatalf("arrivals = %d, want ~100k", count)
	}
	if app.Offered != uint64(count) {
		t.Fatalf("offered = %d", app.Offered)
	}
}

func TestArrivalsAreApproximatelyPoisson(t *testing.T) {
	// Coefficient of variation of inter-arrival gaps must be ~1.
	eng := sim.NewEngine()
	app := NewLApp("mc", Memcached(), 2_000_000)
	var prev sim.Time
	var gaps []float64
	if err := app.GenerateArrivals(eng, sim.NewRNG(5), sim.Time(50*sim.Millisecond), func(r *Request) {
		gaps = append(gaps, float64(r.Arrive-prev))
		prev = r.Arrive
	}); err != nil {
		t.Fatal(err)
	}
	eng.Run(sim.Time(50 * sim.Millisecond))
	var mean, m2 float64
	for _, g := range gaps {
		mean += g
	}
	mean /= float64(len(gaps))
	for _, g := range gaps {
		m2 += (g - mean) * (g - mean)
	}
	cv := math.Sqrt(m2/float64(len(gaps))) / mean
	if cv < 0.9 || cv > 1.1 {
		t.Fatalf("inter-arrival CV = %.3f, want ~1", cv)
	}
}

func TestBurstModulation(t *testing.T) {
	// With bursts the arrival process must show higher variance than
	// Poisson over window counts.
	countWindows := func(burst *Burst, seed uint64) []int {
		eng := sim.NewEngine()
		app := NewLApp("mc", Memcached(), 1_000_000)
		app.Burst = burst
		win := int64(1 * sim.Millisecond)
		counts := make([]int, 100)
		if err := app.GenerateArrivals(eng, sim.NewRNG(seed), sim.Time(100*sim.Millisecond), func(r *Request) {
			idx := int64(r.Arrive) / win
			if idx < 100 {
				counts[idx]++
			}
		}); err != nil {
			t.Fatal(err)
		}
		eng.Run(sim.Time(100 * sim.Millisecond))
		return counts
	}
	varOf := func(counts []int) float64 {
		var mean, m2 float64
		for _, c := range counts {
			mean += float64(c)
		}
		mean /= float64(len(counts))
		for _, c := range counts {
			m2 += (float64(c) - mean) * (float64(c) - mean)
		}
		return m2 / float64(len(counts))
	}
	plain := varOf(countWindows(nil, 7))
	bursty := varOf(countWindows(&Burst{OnMean: 2 * sim.Millisecond, OffMean: 2 * sim.Millisecond, Factor: 4}, 7))
	if bursty < 3*plain {
		t.Fatalf("burst variance %.0f not clearly above plain %.0f", bursty, plain)
	}
}

func TestQueueOperations(t *testing.T) {
	app := NewLApp("mc", Memcached(), 1)
	if app.Dequeue() != nil {
		t.Fatal("dequeue of empty queue")
	}
	if app.QueueDelay(100) != 0 {
		t.Fatal("empty queue delay")
	}
	r1 := app.Arrive(10, 100)
	r2 := app.Arrive(20, 100)
	if app.Offered != 2 || app.Len() != 2 || app.Head() != r1 {
		t.Fatal("arrivals not queued in order")
	}
	if app.QueueDelay(110) != 100 {
		t.Fatalf("queue delay = %v", app.QueueDelay(110))
	}
	if app.Dequeue() != r1 || app.Dequeue() != r2 {
		t.Fatal("FIFO order broken")
	}
	r1.Done = 150
	// Complete releases the request; read it first.
	if r1.Sojourn() != 140 {
		t.Fatalf("sojourn = %v", r1.Sojourn())
	}
	app.Complete(r1, 0)
	if app.Completed != 1 || app.Lat.Count() != 1 {
		t.Fatal("completion accounting")
	}
	// Requests arriving before the measurement start don't count toward
	// latency stats.
	r2.Done = 220
	app.Complete(r2, 100)
	if app.Lat.Count() != 1 {
		t.Fatal("warmup request counted")
	}
}

func TestBAppHelpers(t *testing.T) {
	lp := Linpack()
	mb := Membench()
	if lp.Kind != BestEffort || mb.Kind != BestEffort {
		t.Fatal("kinds")
	}
	if mb.AvgBW() <= lp.AvgBW() {
		t.Fatal("membench must demand more bandwidth than linpack")
	}
	if lp.Kind.String() != "B-app" || LatencyCritical.String() != "L-app" {
		t.Fatal("kind strings")
	}
}

func TestGenerateArrivalsValidation(t *testing.T) {
	eng := sim.NewEngine()
	b := Linpack()
	if err := b.GenerateArrivals(eng, sim.NewRNG(1), 1000, nil); err == nil {
		t.Fatal("B-app arrivals must error")
	}
	l := NewLApp("x", nil, 100)
	if err := l.GenerateArrivals(eng, sim.NewRNG(1), 1000, nil); err == nil {
		t.Fatal("missing dist must error")
	}
	z := NewLApp("z", Memcached(), 0)
	if err := z.GenerateArrivals(eng, sim.NewRNG(1), 1000, nil); err != nil {
		t.Fatal("zero rate should be a no-op, not an error")
	}
}

func TestReplayArrivals(t *testing.T) {
	eng := sim.NewEngine()
	app := NewLApp("mc", Memcached(), 0)
	pts := []TracePoint{
		{At: 100, Service: 1000},
		{At: 250, Service: 2000},
		{At: 250, Service: 500},
	}
	var got []sim.Time
	if err := app.ReplayArrivals(eng, pts, func(r *Request) {
		got = append(got, r.Arrive)
	}); err != nil {
		t.Fatal(err)
	}
	eng.RunAll(100)
	if len(got) != 3 || got[0] != 100 || got[2] != 250 {
		t.Fatalf("replayed arrivals: %v", got)
	}
	if app.Offered != 3 {
		t.Fatalf("offered = %d", app.Offered)
	}
	if app.Head().Service != 1000 {
		t.Fatal("service not set from the trace")
	}
	// Unordered traces are rejected.
	if err := app.ReplayArrivals(eng, []TracePoint{{At: 50}, {At: 20}}, nil); err == nil {
		t.Fatal("unordered trace accepted")
	}
	// B-apps cannot replay.
	if err := Linpack().ReplayArrivals(eng, pts, nil); err == nil {
		t.Fatal("B-app replay accepted")
	}
}

func TestArrivalDeterminism(t *testing.T) {
	run := func() []sim.Time {
		eng := sim.NewEngine()
		app := NewLApp("mc", Memcached(), 500_000)
		var times []sim.Time
		app.GenerateArrivals(eng, sim.NewRNG(99), sim.Time(10*sim.Millisecond), func(r *Request) {
			times = append(times, r.Arrive)
		})
		eng.Run(sim.Time(10 * sim.Millisecond))
		return times
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("arrival %d differs", i)
		}
	}
}

// TestQueueMatchesSliceModel drives the FIFO with every queue operation
// the schedulers use, at depths that drain, wrap and grow, and checks it
// against a plain slice after each one.
func TestQueueMatchesSliceModel(t *testing.T) {
	app := NewLApp("mc", Memcached(), 1)
	var model []*Request
	rng := sim.NewRNG(5)
	for i := 0; i < 20000; i++ {
		// Bias toward growth for a while, then toward draining, so the
		// queue both deepens past its array and empties again.
		grow := (i/2000)%2 == 0
		switch op := rng.IntN(10); {
		case op < 4 || (grow && op < 6):
			model = append(model, app.Arrive(sim.Time(i), 0))
		case op < 8:
			got := app.Dequeue()
			var want *Request
			if len(model) > 0 {
				want, model = model[0], model[1:]
			}
			if got != want {
				t.Fatalf("op %d: Dequeue = %p, want %p", i, got, want)
			}
		case op == 8:
			if r := app.StealNewest(); r != nil {
				if r != model[len(model)-1] {
					t.Fatalf("op %d: StealNewest is not the newest request", i)
				}
				model = model[:len(model)-1]
				if rng.IntN(2) == 0 {
					app.Requeue(r)
					model = append(model, r)
				}
			} else if len(model) != 0 {
				t.Fatalf("op %d: StealNewest = nil with %d queued", i, len(model))
			}
		default:
			r := app.Arrive(sim.Time(i), 0)
			app.StealNewest()
			app.RequeueFront(r)
			model = append([]*Request{r}, model...)
		}
		if app.Len() != len(model) {
			t.Fatalf("op %d: len %d, want %d", i, app.Len(), len(model))
		}
		q := &app.q
		for k := range model {
			if h := q.At(k); app.requests().Get(h) != model[k] {
				t.Fatalf("op %d: queue entry %d differs from the model", i, k)
			}
		}
		if len(model) > 0 && app.Head() != model[0] {
			t.Fatalf("op %d: Head differs from the model", i)
		}
	}
}

// TestQueueServesWithoutAllocating: once its array has grown to the
// working depth, a queue that is filled, partly preempted back to the
// front, and drained again allocates nothing.
func TestQueueServesWithoutAllocating(t *testing.T) {
	app := NewLApp("mc", Memcached(), 1)
	reqs := make([]*Request, 32)
	for i := range reqs {
		reqs[i] = app.Arrive(0, 0)
	}
	for app.Dequeue() != nil {
	}
	cycle := func() {
		for _, r := range reqs {
			app.Requeue(r)
		}
		for i := 0; i < 8; i++ {
			app.RequeueFront(app.Dequeue())
		}
		for app.Dequeue() != nil {
		}
	}
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("a warmed-up fill/requeue/drain cycle allocated %.0f times", allocs)
	}
}

// TestDeepQueueStopsGrowing: a queue that never drains, held at a depth
// past append's doubling range while it is served, settles on one array.
// Sized from the window by append, each new array held the window plus a
// quarter and filled again after that many pushes, so a control-plane
// backlog at saturation reallocated every few hundred requests.
func TestDeepQueueStopsGrowing(t *testing.T) {
	var q fifo.Queue[uint32]
	const n = 1000
	for h := uint32(0); h < n; h++ {
		q.Push(h)
	}
	k := 0
	serve := func() {
		for i := 0; i < n; i++ {
			q.Push(q.Pop())
			k++
		}
	}
	serve()
	if allocs := testing.AllocsPerRun(20, serve); allocs != 0 {
		t.Fatalf("serving a queue held %d deep allocated %.0f times per 1000 requests", q.Len(), allocs)
	}
	for i := 0; i < n; i++ {
		if h := q.Pop(); h != uint32((k+i)%n) {
			t.Fatalf("entry %d is handle %d after %d requests, want %d", i, h, k, (k+i)%n)
		}
	}
}

// TestArrivalsAllocateOnlyRequests: the arrival process's callback is
// bound once, so arrivals allocate only their requests' store chunks, one
// per ChunkSize requests, and nothing once completed requests come back
// for reuse.
func TestArrivalsAllocateOnlyRequests(t *testing.T) {
	for _, burst := range []*Burst{nil, {OnMean: 50 * sim.Microsecond, OffMean: 50 * sim.Microsecond, Factor: 4}} {
		for _, complete := range []bool{false, true} {
			eng := sim.NewEngine()
			app := NewLApp("mc", Memcached(), 1_000_000)
			app.Burst = burst
			until := sim.Time(100 * sim.Millisecond)
			if err := app.GenerateArrivals(eng, sim.NewRNG(1), until, func(*Request) {
				r := app.Dequeue()
				if complete {
					r.Done = eng.Now()
					app.Complete(r, 0)
				}
			}); err != nil {
				t.Fatal(err)
			}
			eng.Run(sim.Time(sim.Millisecond)) // warm the free list and the queue
			// AllocsPerRun makes one unmeasured call first; count arrivals
			// from the second call on.
			calls, from := 0, uint64(0)
			allocs := testing.AllocsPerRun(10, func() {
				if calls++; calls == 2 {
					from = app.Offered
				}
				eng.Run(eng.Now().Add(sim.Millisecond))
			})
			perArrival := allocs * 10 / float64(app.Offered-from)
			if complete && perArrival != 0 {
				t.Fatalf("burst=%v: %.3f allocations per arrival, want 0 with requests reused", burst != nil, perArrival)
			}
			if perArrival > 1.5/ChunkSize {
				t.Fatalf("burst=%v: %.4f allocations per arrival, want 1/%d (a store chunk)", burst != nil, perArrival, ChunkSize)
			}
		}
	}
}

// TestCompleteReleasesRequest: Complete zeroes the request, so a stale
// read of it finds nothing of the request it was, and the app's next
// arrival reuses its slot with every field set afresh.
func TestCompleteReleasesRequest(t *testing.T) {
	eng := sim.NewEngine()
	app := NewLApp("mc", Memcached(), 0)
	app.Attach(new(Store), 3)
	var got []*Request
	err := app.ReplayArrivals(eng, []TracePoint{{At: 10, Service: 5}, {At: 20, Service: 7}}, func(r *Request) {
		got = append(got, app.Dequeue())
		if len(got) == 1 {
			r.Done = 15
			app.Complete(r, 0)
			if *r != (Request{}) {
				t.Fatalf("released request still reads %+v", *r)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	eng.RunAll(10)
	if len(got) != 2 || got[0] != got[1] {
		t.Fatal("the second arrival did not reuse the completed request")
	}
	if want := (Request{AppIdx: 3, h: got[1].h, Arrive: 20, Service: 7}); *got[1] != want {
		t.Fatalf("reused request reads %+v, want %+v", *got[1], want)
	}
}

// TestOfferedLoadTruncationBias pins the offered-load bias of the Poisson
// arrival process. The base gap is 1e9/rate truncated to whole
// nanoseconds, G = ⌊1e9/rate⌋, and each Exp draw truncates once more, so a
// gap is max(1, ⌊G·X⌋) for X ~ Exp(1). Its mean is 1/(e^{1/G} − 1) +
// 1 − e^{−1/G}, which is G − 0.5 up to 13/(12G); the configured mean gap
// 1e9/rate is (frac + 0.5) higher. Over 10^6 arrivals each at rates
// whose 1e9/rate has fractional part 0, 0.3 and 0.9, the realized mean gap
// must sit within five standard errors plus 13/(12G) of G − 0.5, and
// the configured gap must lie outside that bound: the bias never
// vanishes at these rates. The exact gap totals pin the bias bit for bit:
// a change to how Exp or the generator rounds a gap moves them.
func TestOfferedLoadTruncationBias(t *testing.T) {
	const n = 1_000_000
	for _, c := range []struct {
		gap   float64 // configured mean gap, 1e9/rate ns
		frac  float64
		total sim.Duration // sum of the n−1 gaps after the first arrival
	}{
		{16, 0, 15575884},
		{16.9, 0.9, 15575884}, // the same G and seed as 16: the fraction is dropped
		{40.3, 0.3, 39551392},
		{78.9, 0.9, 77561411},
	} {
		rate := 1e9 / c.gap
		exact := 1e9 / rate
		g := math.Floor(exact)
		if math.Abs(exact-g-c.frac) > 1e-9 {
			t.Fatalf("rate %v: 1e9/rate = %v, want fractional part %v", rate, exact, c.frac)
		}
		eng := sim.NewEngine()
		app := NewLApp("mc", Memcached(), rate)
		var first, prev sim.Time
		var count int
		var sum, sumSq float64
		// Run 1% past n configured gaps, which the shorter realized gaps
		// fill with about 4% more arrivals; count the first n.
		until := sim.Time(1.01 * n * c.gap)
		if err := app.GenerateArrivals(eng, sim.NewRNG(13), until, func(r *Request) {
			at := r.Arrive
			app.Complete(app.Dequeue(), 0)
			if count == n {
				return
			}
			if count++; count == 1 {
				first = at
			} else {
				d := float64(at - prev)
				sum, sumSq = sum+d, sumSq+d*d
			}
			prev = at
		}); err != nil {
			t.Fatal(err)
		}
		eng.Run(until)
		if count < n {
			t.Fatalf("rate %v: %d arrivals, want %d", rate, count, n)
		}
		k := float64(count - 1)
		mean := sum / k
		se := math.Sqrt((sumSq/k - mean*mean) / k)
		bound := 5*se + 13/(12*g)
		t.Logf("1e9/rate %v: mean gap %.4f ns over %d gaps, G − 0.5 = %v, bound ±%.4f, total %d",
			exact, mean, count-1, g-0.5, bound, prev.Sub(first))
		if math.Abs(mean-(g-0.5)) > bound {
			t.Errorf("1e9/rate %v: mean gap %.4f ns, want ⌊1e9/rate⌋ − 0.5 = %v within %.4f", exact, mean, g-0.5, bound)
		}
		if exact-mean < c.frac+0.5-bound || exact-mean <= bound {
			t.Errorf("1e9/rate %v: mean gap %.4f ns leaves no visible bias below the configured gap", exact, mean)
		}
		if got := prev.Sub(first); got != c.total {
			t.Errorf("1e9/rate %v: gaps total %d ns, want %d bit for bit", exact, got, c.total)
		}
	}
}
