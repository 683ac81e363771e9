package conformance

import (
	"fmt"

	"vessel/internal/obs/journey"
	"vessel/internal/sched"
	"vessel/internal/sim"
)

// CheckJourney verifies the journey conservation oracle for a run that
// executed with an attached tracer: every finished request journey's
// critical-path segments (queue | run | uintr | gate | data) must sum to
// its measured sojourn *exactly* — not within tolerance — and its span
// tree must be well-formed (dense mint-order IDs, a single root, children
// inside the root's interval, follows-from edges pointing backwards).
// Journey construction makes the identity hold by clamping retroactive
// transitions; the oracle re-derives it from the recorded tree so a
// future instrumentation bug (a missed transition, a double close) cannot
// hide behind the accumulator.
//
// The tracer checks each journey the moment it finishes (its storage may
// be reused right after), so this reads those verdicts and checks
// directly only the journeys still in flight: their trees must be well
// formed and agree with the segments closed so far.
//
// The tracer must be fresh for the run: sharing one tracer across runs
// mixes journeys from different timelines and trips the oracle by design.
func CheckJourney(system string, t *journey.Tracer, res sched.Result) []Violation {
	var out []Violation
	add := func(format string, args ...any) {
		out = append(out, Violation{System: system, Oracle: "journey-conservation", Detail: fmt.Sprintf(format, args...)})
	}
	if !t.Enabled() {
		add("tracer is nil; nothing to check")
		return out
	}
	for _, v := range t.Verdicts() {
		add("%s", v)
	}
	var prev uint64
	for _, j := range t.Journeys() {
		if j.Finished() {
			continue // checked at Finish
		}
		if j.ID <= prev {
			add("journey in flight has ID %d after %d, want ascending mint order", j.ID, prev)
		}
		prev = j.ID
		// The tree of a journey in flight holds its closed segments.
		var fromTree [journey.NumSegments]sim.Duration
		for k, n := range j.Tree() {
			if n.ID != k {
				add("journey %d node at index %d has ID %d", j.ID, k, n.ID)
			}
			if k == 0 {
				if n.Parent != -1 || n.Start != j.Arrive {
					add("journey %d root node malformed: parent=%d start=%d want [-1, %d]",
						j.ID, n.Parent, int64(n.Start), int64(j.Arrive))
				}
				continue
			}
			if n.Parent != 0 {
				add("journey %d node %d: parent %d, want root", j.ID, n.ID, n.Parent)
			}
			if n.Follows >= n.ID {
				add("journey %d node %d: follows-from %d points forward", j.ID, n.ID, n.Follows)
			}
			if n.End < n.Start {
				add("journey %d node %d: negative span [%d,%d]", j.ID, n.ID, int64(n.Start), int64(n.End))
			}
			if n.Start < j.Arrive {
				add("journey %d node %d: span [%d,%d] starts before arrival %d",
					j.ID, n.ID, int64(n.Start), int64(n.End), int64(j.Arrive))
			}
			if n.End > n.Start { // closed segment span (instants carry no weight)
				fromTree[n.Seg] += n.End.Sub(n.Start)
			}
		}
		for s := journey.Segment(0); s < journey.NumSegments; s++ {
			if fromTree[s] != j.Segs[s] {
				add("journey %d segment %s: tree says %d ns, accumulator says %d ns",
					j.ID, s, int64(fromTree[s]), int64(j.Segs[s]))
			}
		}
	}
	// A measured run that completed requests must have finished journeys;
	// an instrumentation seam that silently stopped minting would
	// otherwise pass every per-journey check vacuously.
	var completed uint64
	for _, a := range res.Apps {
		completed += uint64(a.Latency.Count)
	}
	a := t.Analyze()
	if completed > 0 && a.Finished == 0 {
		add("run completed %d measured requests but no journey finished", completed)
	}
	return out
}
