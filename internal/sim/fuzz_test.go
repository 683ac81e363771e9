package sim

import "testing"

// FuzzEngineOrder drives the engine with At, Reserve, AtSeq, Cancel and
// Step, and with At and AtSeq calls made inside firing callbacks, at times
// that collide often. A reference model fires the pending event with the
// least (at, seq) by linear scan; the engine must fire the same sequence,
// and after every operation every handle, Pending and HighWaterPending
// must agree with it. An AtSeq whose key does not order after the last
// fired event must panic and schedule nothing.
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
	// Reserved keys: a backlog reserved up front and scheduled one by one
	// from callbacks (the control-plane pattern), beside At events at the
	// same instants, and keys that order before the event firing.
	f.Add([]byte{0x80, 0x80, 0x80, 0x81, 0, 0, 1, 0x80, 0, 0, 2, 0x80, 0x84,
		3, 0x81, 1, 1, 0, 3, 3, 0x81, 0, 0, 0, 3, 3, 3})
	f.Add([]byte{0x80, 0x80, 0x80, 0x80, 0, 0, 2, 0x80, 0x81, 0x81, 0, 1,
		0x80, 0x80, 0x82, 3, 3, 0x81, 2, 0, 0, 3, 3, 3, 3})
	f.Fuzz(func(t *testing.T, ops []byte) {
		// Every operation rechecks every handle; keep inputs short enough
		// for that to stay cheap.
		if len(ops) > 512 {
			ops = ops[:512]
		}
		// A kid is an event a callback schedules when it fires, d after
		// the firing time: by At when key < 0, else by AtSeq with the
		// reserved seq at index key (mod the pool's size then).
		type kid struct {
			d   Duration
			key int
		}
		type ref struct {
			at        Time
			seq       uint64
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
		// A byte below 0x80 encodes the same kid (and, in the loop below,
		// the same operation) it did before Reserve and AtSeq existed, so
		// older seeds still reach the cases they were added for.
		kidsOf := func() []kid {
			var kids []kid
			for n := next() % 3; n > 0; n-- {
				b := next()
				k := kid{d: Duration(b % 4), key: -1}
				if b >= 0x80 {
					k.key = int(b>>2) & 0x1f
				}
				kids = append(kids, k)
			}
			return kids
		}
		e := NewEngine()
		var (
			hs            []Event
			refs          []*ref
			fired         []int
			seq           uint64
			reserved      []uint64 // reserved and not yet scheduled
			floor         uint64   // one past the last fired seq
			pending, high int
			schedule      func(at Time, key int, kids []kid)
		)
		// schedule adds an event at `at` to the engine and the model: by At
		// when key < 0, else by AtSeq with reserved[key % len]. An AtSeq
		// key that does not order after the last fired event must panic
		// and leave both untouched.
		schedule = func(at Time, key int, kids []kid) {
			id := len(refs)
			r := &ref{at: at, kids: kids, pending: true}
			fn := func() {
				// The engine dequeues an event before running it.
				fired = append(fired, id)
				refs[id].pending = false
				pending--
				floor = refs[id].seq + 1
				if h := hs[id]; h.Pending() || h.Cancelled() || h.At() != refs[id].at {
					t.Fatalf("event %d inside its callback: pending=%v cancelled=%v at=%v",
						id, h.Pending(), h.Cancelled(), h.At())
				}
				for _, k := range refs[id].kids {
					schedule(e.Now().Add(k.d), k.key, nil)
				}
			}
			var h Event
			switch {
			case key < 0:
				r.seq = seq
				seq++
				h = e.At(at, fn)
			case len(reserved) == 0:
				return
			default:
				i := key % len(reserved)
				r.seq = reserved[i]
				if at == e.Now() && r.seq < floor {
					func() {
						defer func() {
							if recover() == nil {
								t.Fatalf("AtSeq(%v, %d) did not panic after seq %d fired at %v",
									at, r.seq, floor-1, e.Now())
							}
						}()
						e.AtSeq(at, r.seq, fn)
					}()
					return
				}
				reserved = append(reserved[:i], reserved[i+1:]...)
				h = e.AtSeq(at, r.seq, fn)
			}
			refs = append(refs, r)
			hs = append(hs, h)
			if pending++; pending > high {
				high = pending
			}
		}
		// earliest is the model's next event: the pending one with the
		// least (at, seq), or -1.
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
			if e.Pending() != pending || e.HighWaterPending() != high {
				t.Fatalf("op %d: Pending=%d HighWaterPending=%d, model %d and %d",
					step, e.Pending(), e.HighWaterPending(), pending, high)
			}
			for i, h := range hs {
				r := refs[i]
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
				// Reserve, or AtSeq with a reserved seq.
				if b&1 == 0 {
					reserved = append(reserved, e.Reserve())
					if reserved[len(reserved)-1] != seq {
						t.Fatalf("op %d: Reserve = %d, model %d", step, reserved[len(reserved)-1], seq)
					}
					seq++
				} else {
					key := int(next())
					at := e.Now().Add(Duration(next() % 4))
					schedule(at, key, kidsOf())
				}
				check(step)
				continue
			}
			switch op := b % 4; op {
			case 0, 1:
				at := e.Now().Add(Duration(next() % 4))
				schedule(at, -1, kidsOf())
			case 2:
				if len(hs) == 0 {
					break
				}
				i := int(next()) % len(hs)
				e.Cancel(hs[i])
				if r := refs[i]; !r.expired {
					if r.pending {
						r.pending = false
						pending--
					}
					r.cancelled = true
				}
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
					t.Fatalf("op %d: fired %v, want event %d", step, fired[n:], want)
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
				t.Fatalf("drain: fired %v, want event %d", fired[n:], want)
			}
			check(-1)
		}
		if e.Step() {
			t.Fatal("engine fired an event the model does not have")
		}
	})
}
