package journey

import (
	"testing"

	"vessel/internal/sim"
)

// TestHandleResolves: a handle resolves to its journey while the journey
// holds its slot, and to nil once a later journey reuses the slot, so a
// stale handle can never move another request's journey. The zero handle
// and a nil tracer resolve to nil; with Retain no slot is reused, so
// every handle keeps resolving to its finished journey.
func TestHandleResolves(t *testing.T) {
	var off *Tracer
	if off.Resolve(0) != nil || off.Mint("x", 0).Handle() != 0 {
		t.Fatal("a disabled tracer resolved or minted a journey")
	}
	for _, retain := range []bool{false, true} {
		tr := NewTracer(Config{Retain: retain})
		if tr.Resolve(0) != nil {
			t.Fatal("the zero handle resolved to a journey")
		}
		// Two blocks' worth in flight, so handles span blocks.
		var js []*Journey
		var hs []Handle
		for i := 0; i < 2<<slotShift; i++ {
			j := tr.Mint("app", sim.Time(i))
			js, hs = append(js, j), append(hs, j.Handle())
		}
		for i, h := range hs {
			if got := tr.Resolve(h); got != js[i] {
				t.Fatalf("retain=%v: handle %d resolved to journey %p, want %p", retain, i, got, js[i])
			}
		}
		stale := hs[7]
		js[7].Finish(100)
		if tr.Resolve(stale) != js[7] {
			t.Fatalf("retain=%v: a finished journey's handle stopped resolving before its slot was reused", retain)
		}
		next := tr.Mint("app", 200)
		switch reused := next == js[7]; {
		case retain && reused:
			t.Fatal("retain=true: a retained journey's slot was reused")
		case !retain && !reused:
			t.Fatal("retain=false: the finished journey's slot was not reused")
		case !retain && tr.Resolve(stale) != nil:
			t.Fatal("retain=false: a stale handle resolved to the journey that reused its slot")
		case retain && tr.Resolve(stale) != js[7]:
			t.Fatal("retain=true: a retained journey's handle stopped resolving")
		}
		if tr.Resolve(next.Handle()) != next {
			t.Fatalf("retain=%v: the new journey's handle does not resolve to it", retain)
		}
	}
}
