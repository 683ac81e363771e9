package trace

import (
	"fmt"
	"strings"
	"testing"

	"vessel/internal/sim"
)

// TestRingEventLogOverwritesOldest pins the bounded-memory discipline long
// chaos soaks rely on: a full ring displaces its oldest entry, keeps the
// most recent max in order, and counts the displacements.
func TestRingEventLogOverwritesOldest(t *testing.T) {
	l := NewEventLog(4)
	for i := 0; i < 10; i++ {
		l.Record(sim.Time(i), fmt.Sprintf("e%d", i), "")
	}
	if l.Len() != 4 {
		t.Fatalf("len = %d, want 4", l.Len())
	}
	if l.Overwritten() != 6 {
		t.Fatalf("overwritten = %d, want 6", l.Overwritten())
	}
	evs := l.Events()
	for i, ev := range evs {
		want := fmt.Sprintf("e%d", 6+i)
		if ev.Name != want || ev.T != sim.Time(6+i) {
			t.Fatalf("event %d = %s@%d, want %s", i, ev.Name, int64(ev.T), want)
		}
	}
	// String and Tail see the same logical (oldest-first) order.
	s := l.String()
	if strings.Contains(s, "e5") || !strings.Contains(s, "e6") {
		t.Fatalf("String holds stale entries:\n%s", s)
	}
	if strings.Index(s, "e6") > strings.Index(s, "e9") {
		t.Fatalf("String order wrong:\n%s", s)
	}
	tail := l.Tail(2)
	if len(tail) != 2 || tail[0].Name != "e8" || tail[1].Name != "e9" {
		t.Fatalf("tail = %+v", tail)
	}
	if l.CountByName("e9") != 1 || l.CountByName("e0") != 0 {
		t.Fatal("CountByName sees overwritten entries")
	}
}

// TestRingEventLogUnderCapacity: a ring that never fills keeps every
// event in recording order.
func TestRingEventLogUnderCapacity(t *testing.T) {
	l := NewEventLog(8)
	for i := 0; i < 5; i++ {
		l.Record(sim.Time(i), fmt.Sprintf("e%d", i), "x")
	}
	if l.Len() != 5 || l.Overwritten() != 0 {
		t.Fatalf("len=%d overwritten=%d", l.Len(), l.Overwritten())
	}
	if evs := l.Events(); evs[0].Name != "e0" || evs[4].Name != "e4" {
		t.Fatalf("order wrong: %+v", evs)
	}
}
