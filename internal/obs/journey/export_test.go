package journey

import "vessel/internal/sim"

// Tamper makes every Finish on t first call mutate with the journey and
// the finish instant: the seam through which oracle tests plant the
// instrumentation bugs the oracle exists to catch.
func Tamper(t *Tracer, mutate func(j *Journey, at sim.Time)) { t.mutate = mutate }

// DropTransition unlinks j's first segment transition from its chain, as
// if the seam that logged it never fired, when that transition opened a
// segment of positive length (a journey finishing at at); it reports
// whether it dropped one.
func DropTransition(j *Journey, at sim.Time) bool {
	prev := int32(-1)
	for i := j.lhead; i >= 0; prev, i = i, j.t.chain[i].next {
		e := &j.t.chain[i]
		if e.note >= 0 {
			continue
		}
		end := at
		for k := e.next; k >= 0; k = j.t.chain[k].next {
			if n := &j.t.chain[k]; n.note < 0 {
				end = n.at
				break
			}
		}
		if end <= e.at {
			return false
		}
		if prev < 0 {
			j.lhead = e.next
		} else {
			j.t.chain[prev].next = e.next
		}
		if j.ltail == i {
			j.ltail = prev
		}
		return true
	}
	return false
}

// CloseTwice charges the open segment up to at a second time without
// moving its start, the accounting of a segment closed twice; it reports
// whether that charged anything.
func CloseTwice(j *Journey, at sim.Time) bool {
	if at <= j.since {
		return false
	}
	j.Segs[j.cur] += at.Sub(j.since)
	return true
}
