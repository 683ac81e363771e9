package trace

import (
	"sync"
	"testing"

	"vessel/internal/sim"
)

// TestEventLogConcurrentWriters hammers one log from many goroutines under
// the race detector: every record must either land or be counted as an
// overwrite, and the full log stays at capacity.
func TestEventLogConcurrentWriters(t *testing.T) {
	const (
		writers = 8
		each    = 2000
		max     = writers * each / 2 // force the full-log overwrite path
	)
	l := NewEventLog(max)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				l.Record(sim.Time(i), "evt", "w")
				if i%64 == 0 {
					// Interleave readers with writers.
					_ = l.Len()
					_ = l.Tail(3)
					_ = l.CountByName("evt")
				}
			}
		}(w)
	}
	wg.Wait()
	if l.Len() != max {
		t.Fatalf("len = %d, want full log %d", l.Len(), max)
	}
	if got := l.Len() + int(l.Overwritten()); got != writers*each {
		t.Fatalf("kept+overwritten = %d, want %d", got, writers*each)
	}
	if n := l.CountByName("evt"); n != max {
		t.Fatalf("CountByName = %d, want %d", n, max)
	}
	if got := len(l.Events()); got != max {
		t.Fatalf("Events len = %d, want %d", got, max)
	}
}

// TestEventLogFullKeepsNewest checks the wraparound edge single-threaded:
// a full log evicts its oldest events, keeps the newest in order, and
// hands out copies.
func TestEventLogFullKeepsNewest(t *testing.T) {
	l := NewEventLog(3)
	for i := 0; i < 5; i++ {
		l.Record(sim.Time(i), "e", "")
	}
	if l.Len() != 3 || l.Overwritten() != 2 {
		t.Fatalf("len=%d overwritten=%d", l.Len(), l.Overwritten())
	}
	ev := l.Events()
	for i, e := range ev {
		if e.T != sim.Time(2+i) {
			t.Fatalf("newest not kept in order: %v", ev)
		}
	}
	// Mutating the returned slice must not corrupt the log.
	ev[0].Name = "mutated"
	if l.Events()[0].Name != "e" {
		t.Fatal("Events returned internal storage")
	}
	if got := l.Tail(10); len(got) != 3 {
		t.Fatalf("tail = %d", len(got))
	}
	if got := l.Tail(2); len(got) != 2 || got[0].T != 3 {
		t.Fatalf("tail(2) = %+v", got)
	}
}
