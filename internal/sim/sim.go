// Package sim provides a deterministic discrete-event simulation engine
// with a virtual nanosecond clock.
//
// Every component of the VESSEL reproduction — the simulated CPU cores, the
// simulated Linux kernel, the schedulers, and the workload generators — is
// driven by a single Engine. Events and timers are executed in strictly
// non-decreasing time order; ties are broken by scheduling order (for a
// timer armed under a reserved key, by the order of its reservation), so a
// run is a pure function of its inputs and seed.
package sim

import (
	"fmt"
	"math"
)

// Time is a point in virtual time, in nanoseconds since the start of the
// simulation.
type Time int64

// Duration is a span of virtual time in nanoseconds.
type Duration int64

// Convenient duration units.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Add returns the time d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration elapsed from u to t.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

func (t Time) String() string { return Duration(t).String() }

// String formats a duration using the most natural unit.
func (d Duration) String() string {
	switch {
	case d == math.MinInt64:
		// -d overflows back to d; MaxInt64 prints the same at this
		// precision.
		return "-" + Duration(math.MaxInt64).String()
	case d < 0:
		return "-" + (-d).String()
	case d < Microsecond:
		return fmt.Sprintf("%dns", int64(d))
	case d < Millisecond:
		return fmt.Sprintf("%.3fµs", float64(d)/float64(Microsecond))
	case d < Second:
		return fmt.Sprintf("%.3fms", float64(d)/float64(Millisecond))
	default:
		return fmt.Sprintf("%.3fs", float64(d)/float64(Second))
	}
}

// Seconds returns the duration as a floating-point number of seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// event is the engine-internal representation of a scheduled callback.
// Fired and cancelled events return to the engine's free list and are
// reused by later At/After calls, so the per-event allocation disappears
// from steady-state scheduling; gen counts reuses so stale handles can
// detect that their event is gone.
type event struct {
	at     Time
	seq    uint64
	gen    uint32
	index  int // heap index; -1 once fired or cancelled
	fn     func()
	cancel bool
}

// Event is a by-value handle to a scheduled callback, returned by the
// scheduling methods so callers can cancel the event before it fires or
// query it. The zero Event is valid and refers to nothing. A handle stays
// answerable after its event fires or is cancelled — until the engine
// reuses the underlying storage for a new event, after which it reads as
// expired (not pending, not cancelled). Retain handles to cancel or to
// test pending-ness, not as long-term records.
type Event struct {
	e   *event
	gen uint32
}

// At reports when the event is (or was) scheduled to fire. Zero for the
// zero handle or once the handle has expired.
func (h Event) At() Time {
	if h.e == nil || h.e.gen != h.gen {
		return 0
	}
	return h.e.at
}

// Cancelled reports whether Cancel was called before the event fired.
func (h Event) Cancelled() bool {
	return h.e != nil && h.e.gen == h.gen && h.e.cancel
}

// Pending reports whether the event is still scheduled to fire: it has
// neither fired nor been cancelled, and the handle has not expired.
func (h Event) Pending() bool {
	return h.e != nil && h.e.gen == h.gen && !h.e.cancel && h.e.index >= 0
}

// Engine is a discrete-event scheduler over virtual time.
//
// Engine is not safe for concurrent use: the simulation is single-threaded
// by design so that results are deterministic.
type Engine struct {
	now    Time
	seq    uint64
	queue  eventHeap
	fired  uint64
	pushed uint64
	// floor is the least seq a reserved key may use at time now: one
	// past the seq of the event fired at now, or 0 once the clock has
	// moved past every fired event.
	floor uint64
	// free holds fired/cancelled events awaiting reuse, so steady-state
	// scheduling allocates nothing. Reuse bumps the event's gen, expiring
	// any handles still pointing at it.
	free []*event
	// timers holds the events of the armed timers, a heap of its own;
	// timerBuf backs it while few are armed, so arming allocates
	// nothing.
	timers   eventHeap
	timerBuf [4]*event
	// held is the heap whose root is the event now firing, from the
	// firing until the callback's first push into that heap takes the
	// root's slot; nil otherwise.
	held *eventHeap
	// hwPending is the most events and armed timers ever pending at
	// once, a depth gauge for tests that bound how much a model keeps
	// scheduled.
	hwPending int
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	e := &Engine{}
	e.timers = e.timerBuf[:0]
	return e
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Fired returns the number of events and timer firings executed so far
// (useful in tests and for detecting runaway simulations).
func (e *Engine) Fired() uint64 { return e.fired }

// Pushed returns the number of events pushed onto the event heap so far;
// timer arms are not counted. Fired minus Pushed is the work timers kept
// off the heap.
func (e *Engine) Pushed() uint64 { return e.pushed }

// Pending returns the number of events and armed timers currently
// scheduled.
func (e *Engine) Pending() int {
	n := len(e.queue) + len(e.timers)
	if e.held != nil {
		n-- // the firing event, not yet replaced
	}
	return n
}

// At schedules fn to run at time t. Scheduling in the past (t < Now) panics:
// it is always a logic error in a discrete-event model.
func (e *Engine) At(t Time, fn func()) Event {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	e.seq++
	return e.push(t, e.seq-1, fn)
}

// Reserve takes the next scheduling sequence number and schedules
// nothing. A timer later armed with it by Timer.AtSeq orders among equal
// times exactly as if At had scheduled it at the moment Reserve was
// called, so a model may defer arming an event it has already decided on
// without moving ties.
func (e *Engine) Reserve() uint64 {
	e.seq++
	return e.seq - 1
}

// push queues fn under the key (t, seq).
func (e *Engine) push(t Time, seq uint64, fn func()) Event {
	var ev *event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		ev.gen++
		ev.cancel = false
	} else {
		ev = &event{}
	}
	ev.at = t
	ev.seq = seq
	ev.fn = fn
	e.enqueue(&e.queue, ev)
	e.pushed++
	return Event{e: ev, gen: ev.gen}
}

// enqueue adds ev to q. The first push into the heap whose root is firing
// takes the root's slot with one sift-down (see fire).
func (e *Engine) enqueue(q *eventHeap, ev *event) {
	if e.held == q {
		e.held = nil
		q.down(0, ev)
	} else {
		q.push(ev)
	}
	e.noteDepth()
}

func (e *Engine) noteDepth() {
	if p := e.Pending(); p > e.hwPending {
		e.hwPending = p
	}
}

// HighWaterPending returns the maximum number of simultaneously scheduled
// events and armed timers observed over the engine's lifetime.
func (e *Engine) HighWaterPending() int { return e.hwPending }

// After schedules fn to run d after the current time. A non-positive d means
// "as soon as possible, after already-queued events at the current instant".
func (e *Engine) After(d Duration, fn func()) Event {
	if d < 0 {
		d = 0
	}
	return e.At(e.now.Add(d), fn)
}

// Cancel prevents a pending event from firing. Cancelling an event that has
// already fired, was already cancelled, or whose handle has expired is a
// no-op; the handle then reads as Cancelled until its storage is reused.
func (e *Engine) Cancel(h Event) {
	ev := h.e
	if ev == nil || ev.gen != h.gen {
		return
	}
	if ev.cancel || ev.index < 0 {
		ev.cancel = true
		return
	}
	ev.cancel = true
	e.queue.remove(ev.index)
	ev.index = -1
	ev.fn = nil
	e.free = append(e.free, ev)
}

// Step executes the next pending event or timer, whichever has the least
// (at, seq) key, advancing the clock to its time. It reports whether one
// was executed. Step and Run must not be called from inside a callback.
func (e *Engine) Step() bool {
	q := e.next()
	if q == nil {
		return false
	}
	e.fire(q)
	return true
}

// Run executes events and timers until none is pending or the next would
// fire after `until`, then advances the clock to `until` (whether nothing
// was left or the next firing lies later).
func (e *Engine) Run(until Time) {
	for q := e.next(); q != nil && (*q)[0].at <= until; q = e.next() {
		e.fire(q)
	}
	if e.now < until {
		e.now = until
		e.floor = 0
	}
}

// next returns the heap whose root fires next, the one with the lesser
// (at, seq) root, or nil when nothing is pending.
func (e *Engine) next() *eventHeap {
	if len(e.timers) > 0 && (len(e.queue) == 0 || e.timers[0].before(e.queue[0])) {
		return &e.timers
	}
	if len(e.queue) > 0 {
		return &e.queue
	}
	return nil
}

// fire runs the callback of q's root in place. The root stays in q while
// its callback runs but reads as fired (index -1), so Pending, Armed and
// Cancel treat it as gone. The callback's first push into q takes its
// slot, so a callback that schedules its own successor costs one sift
// instead of a pop and a push; the root is popped afterwards only if the
// callback pushed nothing into q. Every key pushed meanwhile orders after
// the root's, which ordered before all of q, so the heap order holds, and
// the total (at, seq) order fixes what fires next wherever an event sits.
func (e *Engine) fire(q *eventHeap) {
	if e.held != nil {
		panic("sim: Step or Run called from inside a callback")
	}
	ev := (*q)[0]
	if ev.at < e.now {
		panic("sim: event heap out of order")
	}
	ev.index = -1
	e.now = ev.at
	e.floor = ev.seq + 1
	e.fired++
	e.held = q
	ev.fn()
	if e.held == q {
		e.held = nil
		q.pop()
	}
	if q == &e.timers {
		// A timer's event stays bound to it, and the callback may
		// already have armed it again.
		return
	}
	// Recycle only after the callback returns: the callback (and anything
	// it calls) may still query handles to this event; once we are back,
	// the event is history and its storage can serve the next At.
	ev.fn = nil
	e.free = append(e.free, ev)
}

// RunAll executes events and timers until none is pending. It panics if more than maxEvents fire, to catch runaway
// simulations.
func (e *Engine) RunAll(maxEvents uint64) {
	start := e.fired
	for e.Step() {
		if e.fired-start > maxEvents {
			panic(fmt.Sprintf("sim: more than %d events fired; runaway simulation?", maxEvents))
		}
	}
}

// Timer is a single-flight event: a callback bound once, with at most one
// firing pending, held beside the event heap instead of in it. An armed
// timer orders among events exactly as an event At would have scheduled
// at the same moment, under the same (at, seq) key, so moving a
// single-flight event onto a timer leaves every firing order as it was
// while the event heap does less work. The armed timers sit in a small
// heap of their own, so a timer suits a single-flight event of which an
// engine has a few (one per app or control plane), not one per request or
// core.
//
// A Timer is embedded by value in the model that owns it and bound with
// Engine.Bind; it must not be copied after that. It cannot be cancelled:
// its owner re-arms it only from its own callback, or when it is idle.
type Timer struct {
	eng *Engine
	ev  event // the key and callback; ev.index >= 0 while armed
}

// Bind binds t to e, with fn as its callback. Binding a timer twice
// panics.
func (e *Engine) Bind(t *Timer, fn func()) {
	if t.eng != nil {
		panic("sim: timer bound twice")
	}
	t.eng = e
	t.ev = event{fn: fn, index: -1}
}

// Armed reports whether the bound timer t is waiting to fire. A timer is
// disarmed when its callback starts, so the callback may arm it again.
func (t *Timer) Armed() bool { return t.ev.index >= 0 }

// At arms t to fire at time at, taking the next sequence number exactly
// as Engine.At does. Arming an armed timer, or arming in the past,
// panics and arms nothing.
func (t *Timer) At(at Time) {
	e := t.eng
	if at < e.now {
		panic(fmt.Sprintf("sim: arming timer at %v before now %v", at, e.now))
	}
	t.arm(at, e.seq)
	e.seq++
}

// After arms t to fire d after the current time; a non-positive d means
// now, after what is already scheduled at this instant.
func (t *Timer) After(d Duration) {
	if d < 0 {
		d = 0
	}
	t.At(t.eng.now.Add(d))
}

// AtSeq arms t to fire at time at under seq, a number Engine.Reserve
// returned. The key (at, seq) must order after the event now firing (or
// last fired): an earlier key would fire out of order, so AtSeq panics on
// it, as on a seq Reserve never returned or on an armed timer, and arms
// nothing. Each reserved seq is meant to be used once.
func (t *Timer) AtSeq(at Time, seq uint64) {
	e := t.eng
	if at < e.now || at == e.now && seq < e.floor || seq >= e.seq {
		panic(fmt.Sprintf("sim: key (%v, %d) is unreserved or does not order after now %v, seq floor %d",
			at, seq, e.now, e.floor))
	}
	t.arm(at, seq)
}

func (t *Timer) arm(at Time, seq uint64) {
	if t.Armed() {
		panic(fmt.Sprintf("sim: timer armed twice (pending at %v)", t.ev.at))
	}
	t.ev.at, t.ev.seq = at, seq
	t.eng.enqueue(&t.eng.timers, &t.ev)
}

// MaxTime is the largest representable virtual time.
const MaxTime = Time(math.MaxInt64)

// eventHeap is a binary min-heap on (at, seq), sifted in place: each
// operation carries the moving event through a hole and writes it once,
// keeping every event's index current, with no interface calls. seq is
// unique, so the order is total and the pop sequence depends only on the
// events scheduled, never on how the heap happens to be laid out.
type eventHeap []*event

// before orders events by time, then by scheduling order.
func (a *event) before(b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (h *eventHeap) push(ev *event) {
	*h = append(*h, ev)
	h.up(len(*h)-1, ev)
}

// pop removes the root.
func (h *eventHeap) pop() {
	q := *h
	n := len(q) - 1
	last := q[n]
	q[n] = nil
	*h = q[:n]
	if n > 0 {
		h.down(0, last)
	}
}

// remove deletes the event at index i.
func (h *eventHeap) remove(i int) {
	q := *h
	n := len(q) - 1
	last := q[n]
	q[n] = nil
	*h = q[:n]
	if i == n {
		return
	}
	if i > 0 && last.before(q[(i-1)/2]) {
		h.up(i, last)
	} else {
		h.down(i, last)
	}
}

// up fills the hole at i with ev, moving earlier-ordered parents down.
func (h eventHeap) up(i int, ev *event) {
	for i > 0 {
		p := (i - 1) / 2
		pe := h[p]
		if !ev.before(pe) {
			break
		}
		h[i] = pe
		pe.index = i
		i = p
	}
	h[i] = ev
	ev.index = i
}

// down fills the hole at i with ev, moving earlier-ordered children up.
func (h eventHeap) down(i int, ev *event) {
	n := len(h)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h[r].before(h[c]) {
			c = r
		}
		ce := h[c]
		if !ce.before(ev) {
			break
		}
		h[i] = ce
		ce.index = i
		i = c
	}
	h[i] = ev
	ev.index = i
}
