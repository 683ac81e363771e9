package sim

import (
	"fmt"
	"math"
	"math/rand/v2"
	"strings"
	"testing"
	"testing/quick"
)

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	e.At(30, func() { got = append(got, 3) })
	e.At(10, func() { got = append(got, 1) })
	e.At(20, func() { got = append(got, 2) })
	e.RunAll(100)
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("events out of order: %v", got)
	}
	if e.Now() != 30 {
		t.Fatalf("clock = %v, want 30", e.Now())
	}
}

func TestEngineTieBreakFIFO(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func() { got = append(got, i) })
	}
	e.RunAll(100)
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", got)
		}
	}
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	ev := e.At(10, func() { fired = true })
	e.Cancel(ev)
	e.RunAll(100)
	if fired {
		t.Fatal("cancelled event fired")
	}
	if !ev.Cancelled() {
		t.Fatal("Cancelled() = false after Cancel")
	}
	// Double-cancel is a no-op.
	e.Cancel(ev)
}

func TestEngineCancelMiddleOfHeap(t *testing.T) {
	e := NewEngine()
	var got []Time
	evs := make([]Event, 0, 20)
	for i := 1; i <= 20; i++ {
		tt := Time(i * 10)
		evs = append(evs, e.At(tt, func() { got = append(got, tt) }))
	}
	// Cancel every third event.
	for i := 2; i < len(evs); i += 3 {
		e.Cancel(evs[i])
	}
	e.RunAll(1000)
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("order violated after mid-heap cancel: %v", got)
		}
	}
	if len(got) != 14 {
		t.Fatalf("got %d events, want 14", len(got))
	}
}

func TestEventHandleLifecycle(t *testing.T) {
	e := NewEngine()
	var zero Event
	if zero.Pending() || zero.Cancelled() || zero.At() != 0 {
		t.Fatal("zero handle must be inert")
	}
	e.Cancel(zero) // must be a no-op

	ev := e.At(10, func() {})
	if !ev.Pending() || ev.At() != 10 {
		t.Fatalf("fresh event: pending=%v at=%v", ev.Pending(), ev.At())
	}
	e.RunAll(10)
	if ev.Pending() {
		t.Fatal("fired event still pending")
	}
	// Cancel after fire stays a no-op and must not resurrect anything.
	e.Cancel(ev)
	fired := false
	ev2 := e.At(20, func() { fired = true })
	e.RunAll(10)
	if !fired {
		t.Fatal("event scheduled after a stale cancel did not fire")
	}
	// ev2's storage is recycled; ev (if it shared the slot) must have
	// expired rather than alias the new event's state.
	ev3 := e.At(30, func() {})
	if ev.Pending() || ev2.Pending() && ev2.e == ev3.e && ev2.gen == ev3.gen {
		t.Fatal("stale handle aliases a recycled event")
	}
	if !ev3.Pending() {
		t.Fatal("ev3 should be pending")
	}
	e.Cancel(ev3)
	if ev3.Pending() || !ev3.Cancelled() {
		t.Fatal("cancel not observed through handle")
	}
}

func TestEngineEventReuseNoAlloc(t *testing.T) {
	// Steady-state self-scheduling must not allocate per event: the free
	// list recycles storage once warmed up.
	e := NewEngine()
	burst := func() {
		n := 0
		var tick func()
		tick = func() {
			n++
			if n < 1000 {
				e.After(10, tick)
			}
		}
		e.After(0, tick)
		e.RunAll(2000)
	}
	burst() // warm: populates the free list
	// The measured pass fires 1000 events; only the closure setup itself
	// may allocate (a handful), never one-per-event.
	if allocs := testing.AllocsPerRun(1, burst); allocs > 8 {
		t.Fatalf("1000 recycled events allocated %.0f times", allocs)
	}
}

func TestEngineBoundCallbackNoAlloc(t *testing.T) {
	// The layer-2 models bind each callback once and reschedule it; in
	// steady state At+Step (and At+Cancel) must then allocate nothing,
	// with other events queued around it so every sift moves.
	e := NewEngine()
	fn := func() {}
	for i := 0; i < 63; i++ {
		e.At(Time(1_000_000+i), fn)
	}
	e.At(0, fn)
	e.Step() // warm the free list
	if allocs := testing.AllocsPerRun(1000, func() {
		e.At(e.Now()+10, fn)
		e.Step()
	}); allocs != 0 {
		t.Fatalf("bound callback At+Step allocated %.2f times per event", allocs)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		e.Cancel(e.At(e.Now()+500, fn))
	}); allocs != 0 {
		t.Fatalf("At+Cancel allocated %.2f times per event", allocs)
	}
	var tm Timer
	e.Bind(&tm, fn)
	if allocs := testing.AllocsPerRun(1000, func() {
		tm.At(e.Now() + 10)
		e.Step()
	}); allocs != 0 {
		t.Fatalf("timer arm+Step allocated %.2f times per firing", allocs)
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	count := 0
	for i := 1; i <= 10; i++ {
		e.At(Time(i)*100, func() { count++ })
	}
	e.Run(500)
	if count != 5 {
		t.Fatalf("Run(500) fired %d events, want 5", count)
	}
	if e.Now() != 500 {
		t.Fatalf("clock = %v, want 500", e.Now())
	}
	e.Run(2000)
	if count != 10 {
		t.Fatalf("after Run(2000): %d events, want 10", count)
	}
}

func TestEngineSelfScheduling(t *testing.T) {
	e := NewEngine()
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 100 {
			e.After(10, tick)
		}
	}
	e.After(0, tick)
	e.RunAll(1000)
	if count != 100 {
		t.Fatalf("count = %d, want 100", count)
	}
	if e.Now() != 990 {
		t.Fatalf("clock = %v, want 990", e.Now())
	}
}

func TestEnginePastSchedulingPanics(t *testing.T) {
	e := NewEngine()
	e.At(100, func() {})
	e.RunAll(10)
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	e.At(50, func() {})
}

// TestTimerAtSeq: a timer armed under a reserved key orders among equal
// times as if it had been scheduled when reserved, and AtSeq panics, arming
// nothing, for a key at or before the event now firing, for a seq Reserve
// never returned, and on an armed timer.
func TestTimerAtSeq(t *testing.T) {
	e := NewEngine()
	mustPanic := func(what string, tm *Timer, f func()) {
		t.Helper()
		armed, pending := tm.Armed(), e.Pending()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", what)
			}
			if tm.Armed() != armed || e.Pending() != pending {
				t.Fatalf("%s changed what is scheduled", what)
			}
		}()
		f()
	}
	var got []string
	var probe, reserved, same, early Timer
	for _, b := range []struct {
		tm   *Timer
		name string
	}{{&probe, "probe"}, {&reserved, "reserved"}, {&same, "same-instant"}, {&early, "early"}} {
		e.Bind(b.tm, func() { got = append(got, b.name) })
	}
	earlySeq := e.Reserve()
	e.At(10, func() {
		got = append(got, "at")
		now := e.Now()
		mustPanic("AtSeq before the firing event's seq", &probe, func() { probe.AtSeq(now, earlySeq) })
		mustPanic("AtSeq with the firing event's key", &probe, func() { probe.AtSeq(now, earlySeq+1) })
		mustPanic("AtSeq in the past", &probe, func() { probe.AtSeq(now-1, e.Reserve()) })
		mustPanic("AtSeq with an unreserved seq", &probe, func() { probe.AtSeq(now+1, earlySeq+100) })
		late := e.Reserve()
		e.At(20, func() { got = append(got, "after-reserve") })
		reserved.AtSeq(20, late)
		mustPanic("AtSeq on an armed timer", &reserved, func() { reserved.AtSeq(30, e.Reserve()) })
		mustPanic("At on an armed timer", &reserved, func() { reserved.At(30) })
		same.AtSeq(now, e.Reserve())
		early.AtSeq(20, earlySeq)
	})
	e.RunAll(10)
	want := "at same-instant early reserved after-reserve"
	if s := strings.Join(got, " "); s != want {
		t.Fatalf("fired %q, want %q", s, want)
	}
	// Once the clock has moved past every fired event, any reserved key
	// at the new instant orders after it.
	seq := e.Reserve()
	e.At(30, func() {})
	e.Run(40)
	probe.AtSeq(40, seq)
	e.RunAll(1)
	if got[len(got)-1] != "probe" || e.Now() != 40 {
		t.Fatalf("reserved key at a fresh instant: fired %q at %v", got, e.Now())
	}
	// Of two timers armed for one instant, the one armed second under
	// the older key fires first.
	older := e.Reserve()
	reserved.At(50)
	early.AtSeq(50, older)
	e.RunAll(2)
	if s := strings.Join(got[len(got)-2:], " "); s != "early reserved" {
		t.Fatalf("timers tied at 50ns fired %q, want %q", s, "early reserved")
	}
}

// TestTimerOrdersLikeAt: a timer takes its seq exactly where At would, so
// it fires among events at its instant in scheduling order; it re-arms
// from its own callback; it fires with the heap empty; and Run, Pending,
// HighWaterPending and Fired count it while Pushed does not.
func TestTimerOrdersLikeAt(t *testing.T) {
	e := NewEngine()
	var got []string
	var tm Timer
	n := 0
	e.Bind(&tm, func() {
		if tm.Armed() {
			t.Fatal("timer reads armed inside its callback")
		}
		n++
		got = append(got, fmt.Sprintf("timer@%v", e.Now()))
		if n < 3 {
			tm.After(5)
		}
	})
	e.At(5, func() { got = append(got, "a") })
	tm.At(5)
	e.At(5, func() { got = append(got, "b") })
	e.At(10, func() { got = append(got, "c") })
	if e.Pending() != 4 || e.HighWaterPending() != 4 || e.Pushed() != 3 || !tm.Armed() {
		t.Fatalf("Pending=%d HighWaterPending=%d Pushed=%d armed=%v, want 4, 4, 3, true",
			e.Pending(), e.HighWaterPending(), e.Pushed(), tm.Armed())
	}
	e.Run(12)
	if want := "a timer@5ns b c timer@10ns"; strings.Join(got, " ") != want {
		t.Fatalf("fired %q, want %q", strings.Join(got, " "), want)
	}
	if e.Pending() != 1 || e.Now() != 12 {
		t.Fatalf("after Run(12): Pending=%d now=%v, want 1 at 12ns", e.Pending(), e.Now())
	}
	e.RunAll(10)
	if n != 3 || e.Now() != 15 || e.Fired() != 6 || e.Pushed() != 3 || e.Pending() != 0 {
		t.Fatalf("drained: %d firings, now=%v Fired=%d Pushed=%d Pending=%d", n, e.Now(), e.Fired(), e.Pushed(), e.Pending())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("binding a timer twice did not panic")
		}
	}()
	e.Bind(&tm, func() {})
}

func TestTimerPastArmPanics(t *testing.T) {
	e := NewEngine()
	var tm Timer
	e.Bind(&tm, func() {})
	e.At(100, func() {})
	e.RunAll(10)
	defer func() {
		if recover() == nil {
			t.Fatal("arming in the past did not panic")
		}
		if tm.Armed() || e.Pending() != 0 {
			t.Fatal("a refused arm left the timer armed")
		}
	}()
	tm.At(50)
}

func TestEngineRunAllRunawayGuard(t *testing.T) {
	e := NewEngine()
	var loop func()
	loop = func() { e.After(1, loop) }
	e.After(0, loop)
	defer func() {
		if recover() == nil {
			t.Fatal("runaway simulation did not panic")
		}
	}()
	e.RunAll(1000)
}

// TestEngineStepInsideCallbackPanics: a callback's event still holds its
// heap's root until the callback pushes into that heap, so a Step from
// inside it would fire that event again; it must panic instead.
func TestEngineStepInsideCallbackPanics(t *testing.T) {
	e := NewEngine()
	n := 0
	e.At(1, func() {
		n++
		e.Step()
	})
	defer func() {
		if recover() == nil || n != 1 {
			t.Fatalf("a Step inside a callback did not panic (callback ran %d times)", n)
		}
	}()
	e.Step()
}

func TestDurationString(t *testing.T) {
	cases := []struct {
		d    Duration
		want string
	}{
		{500, "500ns"},
		{1500, "1.500µs"},
		{2500000, "2.500ms"},
		{3 * Second, "3.000s"},
		{-500, "-500ns"},
		{math.MinInt64, "-9223372036.855s"},
		{math.MinInt64 + 1, "-9223372036.855s"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", int64(c.d), got, c.want)
		}
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed produced different streams")
		}
	}
	c := NewRNG(43)
	same := 0
	for i := 0; i < 1000; i++ {
		if NewRNG(42).Fork(uint64(i)).Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 10 {
		t.Fatalf("forked streams suspiciously correlated: %d matches", same)
	}
}

// TestRNGMatchesRandStream pins RNG's draws to a plain rand.Rand over the
// same PCG. Float64, Exp and Uint64 read the PCG directly, so a formula
// that drifted from rand.Rand's would change every canonical byte. For
// several seeds, 10^5 Exp, LogNormal, IntN, Fork (its child drawn from
// too), Float64, Bernoulli and Uint64 draws, interleaved at random, must
// equal the reference's bit for bit.
func TestRNGMatchesRandStream(t *testing.T) {
	newRef := func(seed uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15)) }
	refFloat := func(ref *rand.Rand) float64 {
		u := ref.Float64()
		for u == 0 {
			u = ref.Float64()
		}
		return u
	}
	for _, seed := range []uint64{0, 1, 13, 42, 1<<63 + 7} {
		r, ref := NewRNG(seed), newRef(seed)
		pick := rand.New(rand.NewPCG(seed, 1))
		for i := 0; i < 100_000; i++ {
			var got, want uint64
			op := pick.IntN(7)
			switch op {
			case 0:
				mean := Duration(1 + pick.IntN(100_000))
				got = uint64(r.Exp(mean))
				want = uint64(Duration(-math.Log(refFloat(ref)) * float64(mean)))
			case 1:
				got = uint64(r.LogNormal(9.9, 0.85))
				want = uint64(Duration(math.Exp(ref.NormFloat64()*0.85 + 9.9)))
			case 2:
				n := 1 + pick.IntN(1000)
				got, want = uint64(r.IntN(n)), uint64(ref.IntN(n))
			case 3:
				id := pick.Uint64()
				child, refChild := r.Fork(id), newRef(ref.Uint64()^(id*0xbf58476d1ce4e5b9))
				got = uint64(child.Exp(1000)) ^ child.Uint64()
				want = uint64(Duration(-math.Log(refFloat(refChild))*1000)) ^ refChild.Uint64()
			case 4:
				got, want = math.Float64bits(r.Float64()), math.Float64bits(ref.Float64())
			case 5:
				if r.Bernoulli(0.3) {
					got = 1
				}
				if ref.Float64() < 0.3 {
					want = 1
				}
			case 6:
				got, want = r.Uint64(), ref.Uint64()
			}
			if got != want {
				t.Fatalf("seed %d, draw %d (op %d): %#x, rand.Rand stream %#x", seed, i, op, got, want)
			}
		}
	}
}

func TestRNGExpMean(t *testing.T) {
	r := NewRNG(7)
	const mean = 1000 * Nanosecond
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += float64(r.Exp(mean))
	}
	got := sum / n
	if math.Abs(got-float64(mean)) > 0.02*float64(mean) {
		t.Fatalf("Exp mean = %.1f, want ~%d", got, mean)
	}
}

func TestRNGLogNormalMedian(t *testing.T) {
	r := NewRNG(9)
	mu := math.Log(20000) // 20µs median
	var below int
	const n = 100000
	for i := 0; i < n; i++ {
		if r.LogNormal(mu, 1.0) < 20000 {
			below++
		}
	}
	frac := float64(below) / n
	if math.Abs(frac-0.5) > 0.02 {
		t.Fatalf("median fraction = %.3f, want ~0.5", frac)
	}
}

func TestRNGExpNonNegativeProperty(t *testing.T) {
	f := func(seed uint64, meanRaw uint32) bool {
		r := NewRNG(seed)
		mean := Duration(meanRaw%1000000 + 1)
		for i := 0; i < 100; i++ {
			if r.Exp(mean) < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEventOrderingProperty(t *testing.T) {
	// Property: regardless of insertion order, events always fire in
	// non-decreasing time order.
	f := func(times []uint16) bool {
		e := NewEngine()
		var fired []Time
		for _, tt := range times {
			at := Time(tt)
			e.At(at, func() { fired = append(fired, at) })
		}
		e.RunAll(uint64(len(times)) + 1)
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return len(fired) == len(times)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBernoulli(t *testing.T) {
	r := NewRNG(11)
	hits := 0
	for i := 0; i < 100000; i++ {
		if r.Bernoulli(0.25) {
			hits++
		}
	}
	if frac := float64(hits) / 100000; math.Abs(frac-0.25) > 0.01 {
		t.Fatalf("Bernoulli(0.25) frequency = %.3f", frac)
	}
}
