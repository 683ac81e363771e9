package main

import (
	"container/heap"
	"math/rand/v2"
	"time"
)

// The host this benchmark runs on is shared: other tenants change its
// speed by ±15% from one tenth of a second to the next and by up to 2×
// for minutes at a time. A fixed reference loop, timed between the steps
// of every pass on the same thread, measures that speed, and each step's
// time is scaled by it. The loop does the kinds of work the simulator
// does, in its own code on the standard library only, so no change to the
// simulator can change its cost.

// refNominal is the reference time every step is scaled to: a scaled time
// reads as the seconds the step would have taken on a host that runs the
// reference loop in refNominal.
const refNominal = 330 * time.Microsecond

// speedRef is the reference loop's data. A round's three parts take
// about equal time: updates to a 2048-event binary heap through
// container/heap (the simulator's event queue), a dependent walk along a
// random cycle through 256 KiB (pointer chasing), and lookups in a
// half-full 1 MiB open-addressing hash table (map lookups). Nothing in it
// is allocated on the heap and its one pointer is to itself, so it adds
// neither to live_heap_mb nor to any GC's work.
type speedRef struct {
	events [2048]int64 // event times
	queue  eventQueue  // a binary heap over events
	ring   [1 << 16]uint32
	table  [1 << 17]uint64
	keys   [4096]uint64 // present in table
	rng    uint64       // xorshift state
	found  uint64       // Σ of walk ends and slots found: keeps the loops live
}

type eventQueue []int64

func (q eventQueue) Len() int           { return len(q) }
func (q eventQueue) Less(i, j int) bool { return q[i] < q[j] }
func (q eventQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }

// Push and Pop complete heap.Interface; the loop only calls heap.Fix.
func (q *eventQueue) Push(x any) { *q = append(*q, x.(int64)) }
func (q *eventQueue) Pop() any {
	old := *q
	x := old[len(old)-1]
	*q = old[:len(old)-1]
	return x
}

// speed is the process's one reference loop. It is a static variable, so
// its arrays are not heap memory.
var speed speedRef

func init() {
	rng := rand.New(rand.NewPCG(1, 2))
	for i := range speed.events {
		speed.events[i] = rng.Int64N(1 << 20)
	}
	speed.queue = speed.events[:]
	heap.Init(&speed.queue)
	// Sattolo's algorithm: one cycle through every slot.
	for i := range speed.ring {
		speed.ring[i] = uint32(i)
	}
	for i := len(speed.ring) - 1; i > 0; i-- {
		j := rng.IntN(i)
		speed.ring[i], speed.ring[j] = speed.ring[j], speed.ring[i]
	}
	for n := 0; n < len(speed.table)/2; n++ {
		k := rng.Uint64() | 1 // 0 marks an empty slot
		speed.table[speed.slot(k)] = k
		if n < len(speed.keys) {
			speed.keys[n] = k
		}
	}
	speed.rng = 88172645463325252
}

// slot returns the table index where key k is or would go.
func (r *speedRef) slot(k uint64) uint64 {
	mask := uint64(len(r.table) - 1)
	i := (k * 0x9E3779B97F4A7C15) >> 47 & mask
	for r.table[i] != 0 && r.table[i] != k {
		i = (i + 1) & mask
	}
	return i
}

// run times one round of the reference loop, after an untimed round that
// brings its data back into the caches. The step before it evicts them,
// and how much a step evicts must not change the reference time.
func (r *speedRef) run() time.Duration {
	r.round()
	t := time.Now()
	r.round()
	return time.Since(t)
}

func (r *speedRef) round() {
	for i := 0; i < 650; i++ {
		r.rng ^= r.rng << 13
		r.rng ^= r.rng >> 7
		r.rng ^= r.rng << 17
		r.queue[0] += int64(r.rng >> 52)
		heap.Fix(&r.queue, 0)
	}
	p := uint32(0)
	for i := 0; i < 22500; i++ {
		p = r.ring[p]
	}
	r.found += uint64(p)
	for j := 0; j < 10; j++ {
		for _, k := range r.keys {
			r.found += r.slot(k)
		}
	}
}

// clock runs a pass's steps, one call into the simulator each. It times
// every step, records its span when the pass is traced, and runs the
// reference loop once when it is made and again after every step, so each
// step's time is scaled by the host speed measured just before and just
// after it.
type clock struct {
	tr     *tracer
	last   time.Duration // the latest reference time
	wall   time.Duration // Σ step time
	scaled float64       // Σ step time at the reference speed, seconds
	refs   []float64     // every reference time, seconds
}

func newClock(tr *tracer) *clock {
	c := &clock{tr: tr}
	c.last = c.reference()
	return c
}

// step runs f as one step and returns its span index (-1 untraced).
func (c *clock) step(name string, op bool, f func()) int {
	at := c.tr.begin(name, op)
	t := time.Now()
	f()
	d := time.Since(t)
	c.tr.end(at)
	c.wall += d
	c.scaled += c.scale(d)
	return at
}

// scale runs the reference loop and returns d, in seconds, at the
// reference speed: d × refNominal ÷ the lower of this reference time and
// the one before. A transient (a GC cycle, a preemption) can only slow a
// reference round, so the lower time is the better measure of the host.
func (c *clock) scale(d time.Duration) float64 {
	ref := c.reference()
	s := d.Seconds() * refNominal.Seconds() / min(c.last, ref).Seconds()
	c.last = ref
	return s
}

func (c *clock) reference() time.Duration {
	at := c.tr.begin("speed reference", false)
	d := speed.run()
	c.tr.end(at)
	c.refs = append(c.refs, d.Seconds())
	return d
}
