// Package trace holds EventLog, the bounded, deterministic stream of named
// events in virtual time (injections, contained faults, watchdog kills,
// restarts, grants) that the uProcess runtime, the self-healing and
// cluster drivers and the fault injector record, and that journey
// flight-recorder dumps render to. An EventLog keeps the most recent
// events in a ring and counts what it overwrites. Per-core span timelines
// live in internal/obs.
package trace

import (
	"fmt"
	"strings"
	"sync"

	"vessel/internal/sim"
)

// Event is one entry in the containment/chaos event stream: a named thing
// that happened at a point in virtual time (an injection, a contained
// fault, a watchdog kill, a restart, a reclaim). Events are the
// determinism witness of the fault-injection harness — two runs with the
// same seed and plan must produce byte-identical event logs.
type Event struct {
	T      sim.Time
	Name   string
	Detail string
}

func (e Event) String() string {
	if e.Detail == "" {
		return fmt.Sprintf("%d %s", int64(e.T), e.Name)
	}
	return fmt.Sprintf("%d %s %s", int64(e.T), e.Name, e.Detail)
}

// EventLog is a bounded event ring: when full it overwrites the oldest
// entry and counts overwrites — constant memory for arbitrarily long
// chaos soaks, at the cost of losing the prefix. The log is safe for
// concurrent use; note that concurrent recording makes the *order* of
// entries depend on goroutine interleaving, so determinism fingerprints
// should only be taken from single-threaded (simulation-driven) logs.
type EventLog struct {
	mu          sync.Mutex
	max         int
	start       int // index of the logically first event
	events      []Event
	overwritten uint64
}

// NewEventLog returns a log keeping the most recent max events (1<<16
// when max ≤ 0), overwriting the oldest once full.
func NewEventLog(max int) *EventLog {
	if max <= 0 {
		max = 1 << 16
	}
	return &EventLog{max: max}
}

// Record appends one event; a full log overwrites its oldest entry.
func (l *EventLog) Record(t sim.Time, name, detail string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.events) >= l.max {
		l.events[l.start] = Event{T: t, Name: name, Detail: detail}
		l.start = (l.start + 1) % len(l.events)
		l.overwritten++
		return
	}
	l.events = append(l.events, Event{T: t, Name: name, Detail: detail})
}

// at returns the i-th event in logical (oldest-first) order. Callers hold mu.
func (l *EventLog) at(i int) Event {
	if l.start == 0 {
		return l.events[i]
	}
	return l.events[(l.start+i)%len(l.events)]
}

// Overwritten returns how many events the full log displaced.
func (l *EventLog) Overwritten() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.overwritten
}

// Events returns a copy of the recorded events in order.
func (l *EventLog) Events() []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Event, len(l.events))
	for i := range out {
		out[i] = l.at(i)
	}
	return out
}

// Len returns the number of recorded events.
func (l *EventLog) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.events)
}

// CountByName returns how many recorded events carry the given name.
func (l *EventLog) CountByName(name string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, e := range l.events {
		if e.Name == name {
			n++
		}
	}
	return n
}

// String renders the log one event per line — the canonical fingerprint
// the determinism tests compare across runs.
func (l *EventLog) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	var b strings.Builder
	for i := range l.events {
		b.WriteString(l.at(i).String())
		b.WriteByte('\n')
	}
	return b.String()
}

// Tail returns a copy of the last n events (all of them when n exceeds the
// length, none when n is negative).
func (l *EventLog) Tail(n int) []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	if n < 0 {
		n = 0
	}
	if n > len(l.events) {
		n = len(l.events)
	}
	out := make([]Event, n)
	for i := range out {
		out[i] = l.at(len(l.events) - n + i)
	}
	return out
}
