// Package journey implements request-journey tracing: a trace context
// minted per workload request and propagated causally through every
// crossing seam the codebase exposes as hooks — scheduler wakeup→run
// edges, user-interrupt deferred-delivery windows, call-gate crossings,
// and control-plane packet steering. Each journey is a deterministic
// span tree (parent/child plus follows-from links between consecutive
// segments) whose critical-path segments partition the request's sojourn
// *exactly*: queueing, running, uintr-deferred, gate, and dataplane time
// sum to arrival→completion by construction, and the conformance oracle
// re-checks the identity against the scheduler's own measurement.
//
// The same three rules as internal/obs govern this package:
//
//   - Determinism. Journey IDs are mint order, node IDs are creation
//     order, all timestamps are virtual time, and every export iterates
//     in a fixed order. Two runs with the same seed produce
//     byte-identical journey exports and flight-recorder dumps.
//   - Near-zero cost when disabled. Every method is safe on a nil
//     *Tracer / nil *Journey and returns immediately; instrumentation
//     sites call through without guarding. Canonical run bytes are
//     identical with journey tracing on or off — tracing observes, it
//     never perturbs.
//   - Bounded memory. Each journey is checked and folded into the
//     tracer's summaries the moment it finishes, and its storage is then
//     reused, so a tracer holds O(flight capacity + journeys in flight)
//     however long the run (Config.Retain keeps finished journeys for
//     the exports). The always-on flight recorder is a trace.Ring of the
//     last N journey events for a black-box postmortem; scroll-outs are
//     counted, and a Dump snapshot costs nothing until a
//     kill/restart/failsafe actually fires.
package journey

import (
	"fmt"

	"vessel/internal/sim"
)

// Segment classifies one slice of a request's critical path. The five
// segments partition the sojourn: at every instant between arrival and
// completion a journey is in exactly one segment.
type Segment uint8

const (
	// SegQueue is time spent queued waiting for a core (including
	// control-plane dispatch latency before the run queue is reachable).
	SegQueue Segment = iota
	// SegRun is time spent executing on a core.
	SegRun
	// SegUintr is time inside a user-interrupt delivery or deferred-
	// delivery window that gates this request's dispatch.
	SegUintr
	// SegGate is crossing overhead: context-switch cost, dispatcher
	// handoff, call-gate style entry before the request runs.
	SegGate
	// SegData is time inside the data plane: IOKernel or softirq packet
	// steering before the request is queued.
	SegData
	NumSegments
)

func (s Segment) String() string {
	switch s {
	case SegQueue:
		return "queue"
	case SegRun:
		return "run"
	case SegUintr:
		return "uintr"
	case SegGate:
		return "gate"
	case SegData:
		return "data"
	default:
		return fmt.Sprintf("Segment(%d)", uint8(s))
	}
}

// ParseSegment is the inverse of String, used by the journey decoder.
func ParseSegment(s string) (Segment, error) {
	for seg := Segment(0); seg < NumSegments; seg++ {
		if seg.String() == s {
			return seg, nil
		}
	}
	return 0, fmt.Errorf("journey: unknown segment %q", s)
}

// Node is one node of a journey's span tree. Node 0 is the root (the
// whole request, Parent == -1); every closed segment interval is a child
// of the root. Follows links a child to the previous closed segment
// span — the follows-from edge of the causal chain — or is -1 for the
// first.
type Node struct {
	ID      int
	Parent  int
	Follows int
	Seg     Segment
	Start   sim.Time
	End     sim.Time
	Name    string
}

// Journey is one request's trace context: the live segment state
// machine plus the compactly-logged span tree. All methods are safe on
// a nil *Journey, so instrumentation sites never guard.
//
// Journeys live in tracer-owned slots. A tracer without Config.Retain
// reuses a journey's slot once it finishes, so a caller must not touch a
// finished journey after the tracer's next Mint.
type Journey struct {
	ID     uint64
	Name   string
	Arrive sim.Time
	// Done is the completion time; valid only once Finished.
	Done sim.Time
	// Segs accumulates the critical-path decomposition. Once Finished,
	// the segments sum exactly to Done-Arrive.
	Segs [NumSegments]sim.Duration

	t        *Tracer
	cur      Segment
	since    sim.Time
	finished bool
	// slot is the journey's index in the tracer's slot blocks, and gen
	// counts the journeys the slot has held before this one: together
	// they make its Handle.
	slot, gen uint32
	// The span tree is logged compactly on the hot path — one 16-byte
	// entry per segment transition in the tracer's pointer-free chain
	// store — and replayed on demand by Tree.
	// lhead/ltail index this journey's oldest and newest entries (-1 when
	// none); entries link forward, so replay runs oldest-first and a
	// finished chain goes back to the free list in one splice.
	lhead, ltail int32
}

// chainEntry is one span-log entry of one journey: a transition into
// Segment(-1-note), so -NumSegments ≤ note < 0. next links to the
// journey's next entry (-1 ends the chain; on the free list it links free
// entries).
type chainEntry struct {
	at   sim.Time
	note int32
	next int32
}

// Handle names a journey without pointing at it, so a request can carry
// its journey in pointer-free memory: the journey's slot in the tracer
// plus one in the low 32 bits, the slot's generation in the high 32. The
// zero Handle is no journey; Tracer.Resolve turns it, and any handle whose
// slot has since been reused, into the nil *Journey.
type Handle uint64

// Handle returns j's handle (0 for the nil journey).
func (j *Journey) Handle() Handle {
	if j == nil {
		return 0
	}
	return Handle(j.gen)<<32 | Handle(j.slot+1)
}

// closeSeg closes the current segment at the given instant (clamped
// monotonically: a retroactive timestamp before the segment opened
// collapses to zero length, never negative), charging the elapsed time
// to the segment accumulator.
func (j *Journey) closeSeg(at sim.Time) {
	if at < j.since {
		at = j.since
	}
	j.Segs[j.cur] += at.Sub(j.since)
	j.since = at
}

// To moves the journey into a new segment at the given instant, closing
// the current one. A transition into the current segment is a no-op
// (the segment keeps accumulating). Retroactive instants are allowed —
// the VESSEL reaction path splits an already-elapsed queue window into
// queue|uintr retroactively — and clamp at the segment's open time, so
// conservation can never break.
func (j *Journey) To(seg Segment, at sim.Time) {
	if j == nil || j.finished || seg == j.cur {
		return
	}
	j.to(seg, at)
}

func (j *Journey) to(seg Segment, at sim.Time) {
	j.closeSeg(at)
	j.cur = seg
	// The entry stores the clamped instant (j.since after closeSeg):
	// replaying it yields the same tree as replaying the raw timestamp,
	// and the flight recorder renders the transition where it took
	// effect.
	j.t.record(j, j.since, -1-int32(seg))
}

// Finish completes the journey: the current segment closes at the given
// instant and the root span gets its end time. The tracer then checks
// the journey against the conservation oracle, folds its decomposition
// into the critical-path histograms, path mix, SLO tallies and flight
// recorder, and (without Config.Retain) recycles its storage. Further
// To/Finish calls are no-ops until the slot is reused.
func (j *Journey) Finish(at sim.Time) {
	if j == nil || j.finished {
		return
	}
	j.finish(at)
}

func (j *Journey) finish(at sim.Time) {
	if j.t.mutate != nil {
		j.t.mutate(j, at)
	}
	j.closeSeg(at)
	j.finished = true
	j.Done = j.since
	j.t.finish(j)
}

// Tree materializes the journey's span tree from the compact log: node
// 0 is the root request span, every closed segment interval is a child
// of the root, and Follows links consecutive
// segment spans (the follows-from causal chain). Node IDs are creation
// order; the result is a pure deterministic function of the log, so two
// calls return identical trees.
func (j *Journey) Tree() []Node {
	if j == nil {
		return nil
	}
	nodes := []Node{{ID: 0, Parent: -1, Follows: -1, Start: j.Arrive, Name: j.Name}}
	cur, since, last := SegQueue, j.Arrive, -1
	closeSeg := func(at sim.Time) {
		if at < since {
			at = since
		}
		if at > since {
			n := Node{
				ID: len(nodes), Parent: 0, Follows: last,
				Seg: cur, Start: since, End: at, Name: cur.String(),
			}
			nodes = append(nodes, n)
			last = n.ID
		}
		since = at
	}
	for i := j.lhead; i >= 0; {
		e := &j.t.chain[i]
		closeSeg(e.at)
		cur = Segment(-1 - e.note)
		i = e.next
	}
	if j.finished {
		closeSeg(j.Done)
		nodes[0].End = j.Done
	}
	return nodes
}

// Finished reports whether the journey has completed.
func (j *Journey) Finished() bool { return j != nil && j.finished }

// Cur returns the segment the journey is currently in.
func (j *Journey) Cur() Segment {
	if j == nil {
		return SegQueue
	}
	return j.cur
}

// Sojourn returns Done-Arrive for a finished journey (0 otherwise).
func (j *Journey) Sojourn() sim.Duration {
	if j == nil || !j.finished {
		return 0
	}
	return j.Done.Sub(j.Arrive)
}

// Sum returns the sum of the critical-path segments. For a finished
// journey this equals Sojourn exactly — the conservation identity the
// conformance oracle checks.
func (j *Journey) Sum() sim.Duration {
	if j == nil {
		return 0
	}
	var tot sim.Duration
	for _, d := range j.Segs {
		tot += d
	}
	return tot
}
