package sim

import (
	"math"
	"math/bits"
	"testing"
)

// FuzzEngineOrder drives the engine with At, Cancel and Step, with Reserve
// and eight timers armed by At or under reserved seqs, and with At calls,
// timer arms and Cancels made inside firing callbacks (a timer re-arming
// itself among them), at times that collide often. A callback fires while
// its event still holds its heap's root, and its first push takes that
// slot, so its Cancels aim at the heap's root and last slot, before and
// after that push, as well as at its own handle and at any other. A
// reference model fires the pending event or armed timer with the least
// (at, seq) by linear scan; the engine must fire the same sequence, and
// after every operation and every step of a callback every handle, every
// timer's Armed, Pending, HighWaterPending, Fired and Pushed must agree
// with it. A timer arm whose reserved key does not order after the last
// fired event, or on a timer already armed, must panic and schedule
// nothing.
//
// Handles may expire once their event is history (the engine reuses its
// storage); an expired handle must read as the zero handle, never as
// another event, and a handle must never expire while its event is
// pending.
func FuzzEngineOrder(f *testing.F) {
	f.Add([]byte{0, 1, 0, 0, 1, 2, 4, 2, 3, 3, 3, 3})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 2, 1, 2, 3, 3, 2, 0, 3, 3, 3, 3})
	f.Add([]byte{1, 3, 2, 5, 1, 7, 0, 6, 9, 3, 3, 2, 2, 3, 1, 0, 0, 3, 3, 3})
	// A Cancel whose replacement from the heap's tail must sift up.
	f.Add([]byte("000000010010010000000000202C"))
	// A Cancel of an event a pop just moved down the heap.
	f.Add([]byte("001070010000722"))
	// Reserved keys: a backlog reserved up front and armed one by one
	// from callbacks (the control-plane pattern), beside At events at the
	// same instants, and keys that order before the event firing.
	f.Add([]byte{0x80, 0x80, 0x80, 0x81, 0, 0, 1, 0x80, 0, 0, 2, 0x80, 0x84,
		3, 0x81, 1, 1, 0, 3, 3, 0x81, 0, 0, 0, 3, 3, 3})
	f.Add([]byte{0x80, 0x80, 0x80, 0x80, 0, 0, 2, 0x80, 0x81, 0x81, 0, 1,
		0x80, 0x80, 0x82, 3, 3, 0x81, 2, 0, 0, 3, 3, 3, 3})
	// Timers armed by At beside At events at the same instants, re-armed
	// from their own callbacks and from events', and armed twice.
	f.Add([]byte{0x91, 0, 1, 0x90, 0, 0, 1, 0x94, 0x93, 1, 0, 0x91, 0,
		3, 0x93, 0, 0, 3, 3, 0x95, 2, 0, 3, 3, 3})
	// Timers armed under reserved keys from callbacks, before and after
	// the firing event's seq, beside timers armed by At.
	f.Add([]byte{0x80, 0x80, 1, 0, 2, 0x81, 0xa1, 0x80, 0x83, 1, 0, 1, 0x84,
		3, 0x97, 0, 1, 0x85, 3, 0x80, 3, 3, 3, 3})
	// A timer armed under an older reserved key at the instant another
	// timer is armed for: it must sift above it.
	f.Add([]byte{0x80, 0x93, 0, 0, 0x81, 0, 0, 0, 3, 3})
	// All eight timers armed at once by At, at colliding times, firing and
	// re-arming one another from their callbacks.
	f.Add([]byte{0x91, 1, 0, 0x93, 3, 1, 0xa5, 0x95, 0, 0, 0x97, 2, 2, 0xb9, 0x80,
		0x99, 1, 0, 0x9b, 3, 0, 0x9d, 2, 1, 0xa2, 0x9f, 0, 0, 3, 3, 3, 3, 3, 3, 3, 3, 3})
	// Callbacks that push nothing, one event, or several events into the
	// heap they fire from (a count byte of 0xc0 or more means three or
	// more kids), and a timer that arms three others.
	f.Add([]byte{0, 0, 0, 0, 1, 1, 1, 0, 2, 0xc1, 0, 1, 2, 3, 0, 2, 0,
		0x91, 1, 0xc0, 0xa4, 0xa9, 0xae, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3})
	// Cancels of the event heap's root (0x40): before the first push
	// (the callback's own held event, a no-op), after it (the event just
	// pushed, now the root), and after a push whose sift moved another
	// event up to the root.
	f.Add([]byte{0, 1, 0, 0, 2, 0, 0, 0, 0xc1, 0x40, 0, 0x40, 3, 3,
		0, 0, 2, 3, 0x40, 3, 3, 3, 3, 3})
	// Cancels of the event heap's last slot (0x41): by a callback alone in
	// the heap (its own held event), and before and after a first push
	// over a heap several events deep.
	f.Add([]byte{0, 0, 1, 0x41, 3, 0, 0, 0, 0, 1, 0, 0, 2, 0, 0, 3, 0,
		0, 0, 0xc1, 0x41, 0, 0x41, 1, 3, 3, 3, 3, 3, 3, 3, 3})
	// Callbacks that cancel their own handle (0x42): alone, before a
	// push, after one, and from a timer (a no-op).
	f.Add([]byte{0, 0, 1, 0x42, 0, 1, 2, 0x42, 0, 0, 2, 2, 1, 0x42,
		0x91, 0, 1, 0x42, 3, 3, 3, 3, 3, 3, 3})
	// A callback that cancels other events by index (0x47: handle 1,
	// 0x4b: handle 2) before and after pushing, then a Cancel from
	// outside of the event it pushed.
	f.Add([]byte{0, 1, 0, 0, 2, 0, 0, 3, 0, 0, 0, 0xc0, 0x47, 1, 0x4b, 3, 2, 4, 3, 3, 3})
	// A timer that arms a different timer before re-arming itself, and
	// a timer that cancels the event heap's root before re-arming
	// itself.
	f.Add([]byte{0x91, 0, 2, 0xa5, 0xa2, 0, 2, 0, 0x95, 1, 2, 0x40, 0xaa, 3, 3, 3, 3, 3, 3, 3})
	f.Fuzz(func(t *testing.T, ops []byte) {
		// Every operation rechecks every handle; keep inputs short enough
		// for that to stay cheap.
		if len(ops) > 512 {
			ops = ops[:512]
		}
		const nTimers = 8
		// A kid is what a callback does when it fires. With cancel < 0
		// it schedules, d after the firing time: an event by At when
		// timer < 0, else an arm of timers[timer], by At when key < 0 and
		// under the reserved seq at index key (mod the pool's size)
		// otherwise. With cancel >= 0 it cancels an event: the event
		// heap's root (0) or last slot (1), its own handle (2), or
		// handle cancel>>2 (mod their number) (3, 7, ...).
		type kid struct {
			d                  Duration
			timer, key, cancel int
		}
		type ref struct {
			at        Time
			seq       uint64
			timer     int // the timer armed, or -1 for an event
			kids      []kid
			pending   bool
			cancelled bool // Cancel called before the storage was reused
			expired   bool
		}
		next := func() byte {
			if len(ops) == 0 {
				return 0
			}
			b := ops[0]
			ops = ops[1:]
			return b
		}
		// A byte below 0x40 encodes the same kid (and, in the loop below,
		// a byte below 0x80 the same operation) it did before Reserve,
		// timers and Cancels in callbacks existed, and a count byte below
		// 0xc0 the same number of kids, so older seeds still reach the
		// cases they were added for.
		kidsOf := func() []kid {
			var kids []kid
			n := next()
			if n < 0xc0 {
				n %= 3
			} else {
				n = 3 + n&3
			}
			for ; n > 0; n-- {
				b := next()
				k := kid{d: Duration(b % 4), timer: -1, key: -1, cancel: -1}
				switch {
				case b >= 0x80:
					k.timer = int(b>>2) & 7
					if b&0x20 == 0 {
						k.key = int(b>>6) & 1
					}
				case b >= 0x40:
					k.cancel = int(b & 0x3f)
				}
				kids = append(kids, k)
			}
			return kids
		}
		e := NewEngine()
		var (
			hs            []Event // per ref; zero for timer arms
			refs          []*ref
			fired         []int
			seq           uint64
			reserved      []uint64 // reserved and not yet used
			floor         uint64   // one past the last fired seq
			pending, high int
			pushed        uint64
			timers        [nTimers]Timer
			armed         [nTimers]int // the ref each timer is armed for, or -1
			schedule      func(at Time, timer, key int, kids []kid)
			cancel        func(i int)
			cancelKid     func(self, how int)
		)
		// fire is the model's half of a firing: the engine counts an
		// event as gone, or disarms a timer, before running its callback.
		fire := func(id int) {
			r := refs[id]
			fired = append(fired, id)
			r.pending = false
			pending--
			floor = r.seq + 1
			if e.Fired() != uint64(len(fired)) {
				t.Fatalf("firing %d: Fired=%d, model %d", id, e.Fired(), len(fired))
			}
			for _, k := range r.kids {
				if k.cancel >= 0 {
					cancelKid(id, k.cancel)
				} else {
					schedule(e.Now().Add(k.d), k.timer, k.key, nil)
				}
				if e.Pending() != pending || e.HighWaterPending() != high {
					t.Fatalf("inside firing %d: Pending=%d HighWaterPending=%d, model %d and %d",
						id, e.Pending(), e.HighWaterPending(), pending, high)
				}
			}
		}
		// cancel cancels handle i in the engine and the model; a timer
		// arm's zero handle makes it a no-op.
		cancel = func(i int) {
			e.Cancel(hs[i])
			if r := refs[i]; r.timer < 0 && !r.expired {
				if r.pending {
					r.pending = false
					pending--
				}
				r.cancelled = true
			}
		}
		// cancelKid is a kid's Cancel from inside firing self. The heap's
		// root and last slot are read from the engine and traced back to
		// their handle; while self's event holds the root, the root is
		// self.
		cancelKid = func(self, how int) {
			var ev *event
			switch n := len(e.queue); {
			case how&3 == 2:
				cancel(self)
				return
			case how&3 == 3:
				cancel((how >> 2) % len(hs))
				return
			case n == 0:
				return
			case how&3 == 0:
				ev = e.queue[0]
			default:
				ev = e.queue[n-1]
			}
			for i, h := range hs {
				if h.e == ev && h.gen == ev.gen {
					cancel(i)
					return
				}
			}
			t.Fatalf("inside firing %d: heap holds an event with no handle", self)
		}
		for k := range timers {
			armed[k] = -1
			e.Bind(&timers[k], func() {
				id := armed[k]
				armed[k] = -1
				if id < 0 || timers[k].Armed() || e.Now() != refs[id].at {
					t.Fatalf("timer %d fired at %v for ref %d, armed=%v", k, e.Now(), id, timers[k].Armed())
				}
				fire(id)
			})
		}
		// mustPanic runs an arm the engine must refuse.
		mustPanic := func(what string, arm func()) {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", what)
				}
			}()
			arm()
		}
		// schedule adds an event or timer arm at `at` to the engine and the
		// model. An arm of an armed timer, or under a reserved key that
		// does not order after the last fired event, must panic and leave
		// both untouched.
		schedule = func(at Time, timer, key int, kids []kid) {
			id := len(refs)
			r := &ref{at: at, timer: timer, kids: kids, pending: true}
			var h Event
			switch {
			case timer < 0:
				r.seq = seq
				seq++
				pushed++
				h = e.At(at, func() {
					if h := hs[id]; h.Pending() || h.Cancelled() || h.At() != refs[id].at {
						t.Fatalf("event %d inside its callback: pending=%v cancelled=%v at=%v",
							id, h.Pending(), h.Cancelled(), h.At())
					}
					fire(id)
				})
			case key >= 0 && len(reserved) == 0:
				return
			case armed[timer] >= 0:
				tm := &timers[timer]
				if key < 0 {
					mustPanic("At on an armed timer", func() { tm.At(at) })
				} else {
					mustPanic("AtSeq on an armed timer", func() { tm.AtSeq(at, reserved[key%len(reserved)]) })
				}
				return
			case key < 0:
				r.seq = seq
				seq++
				timers[timer].At(at)
			default:
				i := key % len(reserved)
				r.seq = reserved[i]
				if at == e.Now() && r.seq < floor {
					mustPanic("AtSeq before the last fired key", func() { timers[timer].AtSeq(at, r.seq) })
					return
				}
				reserved = append(reserved[:i], reserved[i+1:]...)
				timers[timer].AtSeq(at, r.seq)
			}
			if timer >= 0 {
				armed[timer] = id
			}
			refs = append(refs, r)
			hs = append(hs, h)
			if pending++; pending > high {
				high = pending
			}
		}
		// earliest is the model's next firing: the pending event or armed
		// timer with the least (at, seq), or -1.
		earliest := func() int {
			want := -1
			for i, r := range refs {
				if r.pending && (want < 0 || r.at < refs[want].at ||
					r.at == refs[want].at && r.seq < refs[want].seq) {
					want = i
				}
			}
			return want
		}
		check := func(step int) {
			if e.Pending() != pending || e.HighWaterPending() != high ||
				e.Fired() != uint64(len(fired)) || e.Pushed() != pushed {
				t.Fatalf("op %d: Pending=%d HighWaterPending=%d Fired=%d Pushed=%d, model %d, %d, %d and %d",
					step, e.Pending(), e.HighWaterPending(), e.Fired(), e.Pushed(), pending, high, len(fired), pushed)
			}
			for k := range timers {
				if timers[k].Armed() != (armed[k] >= 0) {
					t.Fatalf("op %d: timer %d armed=%v, model %v", step, k, timers[k].Armed(), armed[k] >= 0)
				}
			}
			for i, h := range hs {
				r := refs[i]
				if r.timer >= 0 {
					continue
				}
				at, p, c := h.At(), h.Pending(), h.Cancelled()
				if !r.expired && (at != r.at || p != r.pending || c != r.cancelled) {
					r.expired = !r.pending && at == 0 && !p && !c
					if !r.expired {
						t.Fatalf("op %d: handle %d reads at=%v pending=%v cancelled=%v, model at=%v pending=%v cancelled=%v",
							step, i, at, p, c, r.at, r.pending, r.cancelled)
					}
				}
				if r.expired && (at != 0 || p || c) {
					t.Fatalf("op %d: expired handle %d reads at=%v pending=%v cancelled=%v", step, i, at, p, c)
				}
			}
		}
		for step := 0; len(ops) > 0; step++ {
			b := next()
			if b >= 0x80 {
				// Reserve, or arm timer (b>>1)&7: under a reserved seq
				// (its index in the next byte) when b&0x10 == 0, else by
				// At.
				if b&1 == 0 {
					reserved = append(reserved, e.Reserve())
					if reserved[len(reserved)-1] != seq {
						t.Fatalf("op %d: Reserve = %d, model %d", step, reserved[len(reserved)-1], seq)
					}
					seq++
				} else {
					key := -1
					if b&0x10 == 0 {
						key = int(next())
					}
					at := e.Now().Add(Duration(next() % 4))
					schedule(at, int(b>>1)&7, key, kidsOf())
				}
				check(step)
				continue
			}
			switch op := b % 4; op {
			case 0, 1:
				at := e.Now().Add(Duration(next() % 4))
				schedule(at, -1, -1, kidsOf())
			case 2:
				if len(hs) == 0 {
					break
				}
				cancel(int(next()) % len(hs))
			case 3:
				want := earliest()
				n := len(fired)
				if stepped := e.Step(); stepped != (want >= 0) {
					t.Fatalf("op %d: Step = %v with model pending %v", step, stepped, want >= 0)
				}
				if want < 0 {
					break
				}
				if len(fired) != n+1 || fired[n] != want {
					t.Fatalf("op %d: fired %v, want %d", step, fired[n:], want)
				}
				if e.Now() != refs[want].at {
					t.Fatalf("op %d: clock %v, want %v", step, e.Now(), refs[want].at)
				}
			}
			check(step)
		}
		// Drain: the rest must fire in model order too.
		for pending > 0 {
			want := earliest()
			n := len(fired)
			e.Step()
			if len(fired) != n+1 || fired[n] != want {
				t.Fatalf("drain: fired %v, want %d", fired[n:], want)
			}
			check(-1)
		}
		if e.Step() {
			t.Fatal("engine fired something the model does not have")
		}
	})
}

// FuzzExpExact checks Exp's fast evaluation against its defining formula
// for the uniform Float64 makes from word: whenever expFast claims a
// value, it must be Duration(-math.Log(u) * float64(mean)), and above
// expFastMaxMean it must claim none. Random int64 means would nearly all
// lie above the cap, so the fuzzed meanArg carries a bit width up to 41
// in its low 6 bits and mean − 1, cut to that width, above them
// (expMeanArg encodes one). The seeds sit on integer boundaries of
// y = −ln(u)·mean, at the smallest u, next to 1, and around the cap.
func FuzzExpExact(f *testing.F) {
	f.Add(uint64(1)<<11, expMeanArg(1))
	f.Add(^uint64(0), expMeanArg(1000))
	f.Add(uint64(0x9e3779b97f4a7c15), expMeanArg(78))
	f.Add(uint64(0x9e3779b97f4a7c15), expMeanArg(1<<40))
	f.Add(uint64(0x9e3779b97f4a7c15), expMeanArg(1<<40+1))
	for _, b := range []struct{ k, mean float64 }{{1, 1}, {3, 2}, {500, 1000}, {2, 3125}, {70000, 1e5}} {
		f.Add(uint64(math.Exp(-b.k/b.mean)*(1<<53))<<11, expMeanArg(Duration(b.mean)))
	}
	f.Fuzz(func(t *testing.T, word uint64, meanArg int64) {
		u := float64(word>>11) / (1 << 53)
		if u == 0 {
			return
		}
		width := uint64(meanArg) & 63 % 42
		mean := Duration(1 + uint64(meanArg)>>6&(1<<width-1))
		d, ok := expFast(u, mean)
		if !ok {
			return
		}
		if mean > expFastMaxMean {
			t.Fatalf("mean %d above the cap took the fast path", mean)
		}
		if want := expRef(u, mean); d != want {
			t.Fatalf("u %b, mean %d: fast path %d, reference %d", u, mean, d, want)
		}
	})
}

// expMeanArg encodes mean, at most 2⁴¹, as FuzzExpExact's meanArg.
func expMeanArg(mean Duration) int64 {
	v := uint64(mean - 1)
	return int64(v<<6 | uint64(bits.Len64(v)))
}
