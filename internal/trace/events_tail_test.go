package trace

import "testing"

// Tail used to panic on negative n (make with a negative length); it must
// clamp to "no events" instead.
func TestTailClampsNegativeN(t *testing.T) {
	l := NewEventLog(0)
	l.Record(1, "a", "")
	l.Record(2, "b", "")
	if got := l.Tail(-1); len(got) != 0 {
		t.Fatalf("Tail(-1) returned %d events", len(got))
	}
	if got := l.Tail(-1 << 40); len(got) != 0 {
		t.Fatal("Tail(very negative) returned events")
	}
	if got := l.Tail(1); len(got) != 1 || got[0].Name != "b" {
		t.Fatalf("Tail(1) = %+v", got)
	}
	if got := l.Tail(99); len(got) != 2 {
		t.Fatalf("Tail(99) = %d events", len(got))
	}
}

// TestNilEventLogIsSafe: the nil log is the disabled log, so recorders
// call through it without guarding.
func TestNilEventLogIsSafe(t *testing.T) {
	var l *EventLog
	l.Record(1, "a", "")
	if l.Len() != 0 || l.Overwritten() != 0 || l.CountByName("a") != 0 || l.String() != "" {
		t.Fatal("nil log retained state")
	}
	if ev, tail := l.Events(), l.Tail(3); ev == nil || len(ev) != 0 || tail == nil || len(tail) != 0 {
		t.Fatalf("nil log: Events %#v, Tail %#v; want empty, non-nil", ev, tail)
	}
}
