package journey

import (
	"fmt"
	"testing"

	"vessel/internal/sim"
	"vessel/internal/trace"
)

// TestFlightRingMatchesModel drives the flight recorder far past its
// capacity with a random mix of journey and seam events and compares it
// with a plain slice of every event ever recorded: Events must be the
// slice's tail, Overwritten the rest, and a dump must render them. The
// second case starts the journey counters just below 2^32, so journey
// IDs cross the 32-bit boundary mid-run; trace's TestRingMatchesModel
// takes the ring's own counters across it.
func TestFlightRingMatchesModel(t *testing.T) {
	const capacity = 7
	for _, start := range []uint64{0, 1<<32 - 5} {
		t.Run(fmt.Sprint(start), func(t *testing.T) {
			tr := NewTracer(Config{FlightCap: capacity})
			tr.minted, tr.seen = start, start
			var model []trace.Event
			var open []*Journey
			rng := sim.NewRNG(start + 1)
			at := sim.Time(0)
			check := func() {
				t.Helper()
				want := model[len(model)-capacity:]
				got := tr.Flight().Events()
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("after %d events: ring holds\n%v\nwant\n%v", len(model), got, want)
				}
				over := uint64(len(model) - capacity)
				if n := tr.Flight().Overwritten(); n != over {
					t.Fatalf("after %d events: overwritten %d, want %d", len(model), n, over)
				}
				wantDump := Dump{At: at, Reason: "check", Overwritten: over, Events: want}.Text()
				if d := tr.Dump(at, "check").Text(); d != wantDump {
					t.Fatalf("dump text:\n%s\nwant\n%s", d, wantDump)
				}
			}
			for step := 1; step <= 20000; step++ {
				at++
				var j *Journey
				if len(open) > 0 {
					j = open[rng.IntN(len(open))]
				}
				switch op := rng.IntN(4); {
				case op == 0 || j == nil:
					name := fmt.Sprintf("app%d", rng.IntN(3))
					j = tr.Mint(name, at)
					open = append(open, j)
					model = append(model, trace.Event{T: at, Name: "journey.mint", Detail: fmt.Sprintf("j=%d app=%s", j.ID, name)})
				case op == 1:
					if seg := Segment(rng.IntN(int(NumSegments))); seg != j.Cur() {
						j.To(seg, at)
						model = append(model, trace.Event{T: at, Name: "journey.seg", Detail: fmt.Sprintf("j=%d seg=%s", j.ID, seg)})
					}
				case op == 2:
					j.Finish(at)
					for i := range open {
						if open[i] == j {
							open = append(open[:i], open[i+1:]...)
							break
						}
					}
					model = append(model, trace.Event{T: at, Name: "journey.finish", Detail: fmt.Sprintf("j=%d sojourn=%d", j.ID, int64(at.Sub(j.Arrive)))})
				default:
					detail := fmt.Sprintf("d%d", rng.IntN(3))
					tr.Event(at, "seam", detail)
					model = append(model, trace.Event{T: at, Name: "seam", Detail: detail})
				}
				if step%997 == 0 {
					check()
				}
			}
			check()
			if start > 0 && tr.Minted() <= 1<<32 {
				t.Fatalf("journey IDs never crossed 2^32: minted %d", tr.Minted())
			}
		})
	}
}

// TestBoundedStorage: a tracer without Retain holds storage for the
// journeys in flight and the flight ring, not for every journey it has
// seen. With 64 journeys in flight throughout, its journey slots, chain
// entries and ring entries after 10^6 mint/finish cycles equal those
// after 10^3.
func TestBoundedStorage(t *testing.T) {
	tr := New()
	var open [64]*Journey
	cycle := func(i int) {
		at := us(int64(i))
		j := tr.Mint("req", at)
		j.To(SegRun, at+1)
		for _, seg := range []Segment{SegUintr, SegData}[:i%3] { // chains of 2 to 4 entries
			j.To(seg, at+1)
		}
		j.To(SegGate, at+2)
		slot := &open[i%len(open)]
		(*slot).Finish(at + 3)
		*slot = j
	}
	footprint := func() [4]int {
		return [4]int{len(tr.blocks), len(tr.chain), tr.flight.ring.Len(), cap(tr.free)}
	}
	i := 0
	for ; i < 1e3; i++ {
		cycle(i)
	}
	small := footprint()
	for ; i < 1e6; i++ {
		cycle(i)
	}
	if big := footprint(); big != small {
		t.Fatalf("storage grew with finished journeys: slot blocks, chain entries, ring entries, free-list capacity %v after 10^3 cycles, %v after 10^6", small, big)
	}
	if a := tr.Analyze(); a.Finished != 1e6-64 || a.Unfinished != 64 {
		t.Fatalf("analysis: %d finished, %d unfinished", a.Finished, a.Unfinished)
	}
	if v := tr.Verdicts(); len(v) != 0 {
		t.Fatalf("oracle verdicts: %v", v)
	}
}

// TestFinishAllocatesNothing: once storage is warm, a journey's whole
// life — mint, transitions, and the Finish that checks
// and folds it — allocates nothing on a bounded tracer.
func TestFinishAllocatesNothing(t *testing.T) {
	tr := NewTracer(Config{SLOTarget: 2 * sim.Microsecond})
	at := sim.Time(0)
	life := func() {
		j := tr.Mint("req", at)
		j.To(SegGate, at+10)
		j.To(SegRun, at+20)
		j.Finish(at + 30)
		at += 40
	}
	life()
	if n := testing.AllocsPerRun(1000, life); n != 0 {
		t.Fatalf("journey life allocates %.1f times", n)
	}
}
