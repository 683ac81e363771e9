package kernel

import (
	"container/heap"

	"vessel/internal/sim"
)

// This file implements the Completely Fair Scheduler runqueue used by the
// Linux baseline (§6.1 configures the L-app at nice −19 and the B-app at
// nice 20). It reproduces the mechanics that produce the paper's observed
// behaviour: weight-proportional vruntime advancement, ms-scale effective
// timeslices, and wakeup placement that bounds how far a sleeper can get
// ahead.

// prioToWeight is the kernel's sched_prio_to_weight table, indexed by
// nice+20.
var prioToWeight = [40]int64{
	88761, 71755, 56483, 46273, 36291,
	29154, 23254, 18705, 14949, 11916,
	9548, 7620, 6100, 4904, 3906,
	3121, 2501, 1991, 1586, 1277,
	1024, 820, 655, 526, 423,
	335, 272, 215, 172, 137,
	110, 87, 70, 56, 45,
	36, 29, 23, 18, 15,
}

// WeightForNice returns the CFS load weight for a nice value (clamped).
func WeightForNice(nice int) int64 {
	if nice < -20 {
		nice = -20
	}
	if nice > 19 {
		nice = 19
	}
	return prioToWeight[nice+20]
}

const niceZeroWeight = 1024

// Entity is a schedulable CFS entity.
type Entity struct {
	ID       int
	Weight   int64
	Vruntime sim.Duration // weighted virtual runtime
	OnRQ     bool
	index    int // heap position, -1 when not queued
	// UserData lets callers attach their thread object.
	UserData any
}

// NewEntity returns an entity with the weight for the given nice value.
func NewEntity(id, nice int) *Entity {
	return &Entity{ID: id, Weight: WeightForNice(nice), index: -1}
}

// Runqueue is a per-core CFS runqueue ordered by vruntime.
type Runqueue struct {
	queue   entityHeap
	current *Entity
	minVrun sim.Duration
	// Tunables, defaulting to the kernel's.
	Latency        sim.Duration // sched_latency_ns
	MinGranularity sim.Duration // sched_min_granularity_ns
	WakeupGran     sim.Duration // sched_wakeup_granularity_ns
}

// NewRunqueue returns a runqueue with the kernel's default CFS tunables.
func NewRunqueue() *Runqueue {
	return &Runqueue{
		Latency:        6 * sim.Millisecond,
		MinGranularity: 750 * sim.Microsecond,
		WakeupGran:     1 * sim.Millisecond,
	}
}

// Len returns the number of queued (not current) entities.
func (rq *Runqueue) Len() int { return len(rq.queue) }

// Current returns the running entity, if any.
func (rq *Runqueue) Current() *Entity { return rq.current }

// MinVruntime returns the runqueue's monotonically advancing floor.
func (rq *Runqueue) MinVruntime() sim.Duration { return rq.minVrun }

// Enqueue makes e runnable. If wakeup is true the entity is placed at
// min_vruntime − latency/2 (clamped up to its own vruntime), the kernel's
// sleeper-fairness placement: a waking sleeper gets a modest boost, not an
// unbounded one.
func (rq *Runqueue) Enqueue(e *Entity, wakeup bool) {
	if e.OnRQ {
		return
	}
	if wakeup {
		floor := rq.minVrun - sim.Duration(int64(rq.Latency)/2)
		if e.Vruntime < floor {
			e.Vruntime = floor
		}
	} else if e.Vruntime < rq.minVrun {
		e.Vruntime = rq.minVrun
	}
	e.OnRQ = true
	heap.Push(&rq.queue, e)
}

// Dequeue removes a queued entity (e.g. it went to sleep while preempted).
func (rq *Runqueue) Dequeue(e *Entity) {
	if !e.OnRQ || e.index < 0 {
		e.OnRQ = false
		return
	}
	heap.Remove(&rq.queue, e.index)
	e.OnRQ = false
	e.index = -1
}

// PickNext selects the leftmost entity as current, returning nil when the
// queue is empty. Any previous current must have been put back or retired
// by the caller first.
func (rq *Runqueue) PickNext() *Entity {
	if len(rq.queue) == 0 {
		rq.current = nil
		return nil
	}
	e := heap.Pop(&rq.queue).(*Entity)
	e.OnRQ = false
	e.index = -1
	rq.current = e
	if e.Vruntime > rq.minVrun {
		rq.minVrun = e.Vruntime
	}
	return e
}

// PutPrev returns the current entity to the queue (it remains runnable).
func (rq *Runqueue) PutPrev() {
	if rq.current == nil {
		return
	}
	e := rq.current
	rq.current = nil
	e.OnRQ = true
	heap.Push(&rq.queue, e)
}

// Retire removes the current entity without requeueing (it blocked).
func (rq *Runqueue) Retire() {
	rq.current = nil
}

// Account charges wall-time ran to the current entity's vruntime,
// weight-scaled: vruntime += ran * (1024 / weight).
func (rq *Runqueue) Account(ran sim.Duration) {
	if rq.current == nil {
		return
	}
	e := rq.current
	e.Vruntime += sim.Duration(int64(ran) * niceZeroWeight / e.Weight)
}

// Timeslice returns the current entity's ideal slice:
// latency * weight / total_weight, floored at min granularity.
func (rq *Runqueue) Timeslice() sim.Duration {
	if rq.current == nil {
		return rq.Latency
	}
	var total int64
	for _, e := range rq.queue {
		total += e.Weight
	}
	total += rq.current.Weight
	slice := sim.Duration(int64(rq.Latency) * rq.current.Weight / total)
	if slice < rq.MinGranularity {
		slice = rq.MinGranularity
	}
	return slice
}

// ShouldPreempt implements check_preempt_wakeup: a waking entity preempts
// the current one only if current's vruntime exceeds the waker's by more
// than the wakeup granularity (weight-scaled on the waker).
func (rq *Runqueue) ShouldPreempt(waker *Entity) bool {
	if rq.current == nil {
		return true
	}
	gran := sim.Duration(int64(rq.WakeupGran) * niceZeroWeight / waker.Weight)
	return rq.current.Vruntime-waker.Vruntime > gran
}

// entityHeap orders by vruntime (ties by ID for determinism).
type entityHeap []*Entity

func (h entityHeap) Len() int { return len(h) }
func (h entityHeap) Less(i, j int) bool {
	if h[i].Vruntime != h[j].Vruntime {
		return h[i].Vruntime < h[j].Vruntime
	}
	return h[i].ID < h[j].ID
}
func (h entityHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *entityHeap) Push(x any) {
	e := x.(*Entity)
	e.index = len(*h)
	*h = append(*h, e)
}
func (h *entityHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	e.index = -1
	return e
}
