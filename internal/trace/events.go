// Package trace holds the event storage of the reproduction. Ring is the
// one bounded store behind every event stream: it grows to its capacity,
// then overwrites its oldest entry and counts it. EventLog, the
// deterministic stream of named events in virtual time (injections,
// contained faults, watchdog kills, restarts, grants) that the uProcess
// runtime, the self-healing and cluster drivers and the fault injector
// record, is a mutex in front of a Ring. The per-core span timelines of
// internal/obs and the journey flight recorder, whose dumps render to
// trace.Event, keep their entries in a Ring too.
package trace

import (
	"fmt"
	"math"
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
// The nil *EventLog is the disabled log: Record drops the event and the
// readers see an empty log.
type EventLog struct {
	mu   sync.Mutex
	ring Ring[Event]
}

// NewEventLog returns a log keeping the most recent max events (1<<16
// when max ≤ 0), overwriting the oldest once full.
func NewEventLog(max int) *EventLog {
	if max <= 0 {
		max = 1 << 16
	}
	return &EventLog{ring: NewRing[Event](max)}
}

// Record appends one event; a full log overwrites its oldest entry.
func (l *EventLog) Record(t sim.Time, name, detail string) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.ring.Add(Event{T: t, Name: name, Detail: detail})
}

// Overwritten returns how many events the full log displaced.
func (l *EventLog) Overwritten() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ring.Overwritten()
}

// Events returns a copy of the recorded events in order.
func (l *EventLog) Events() []Event { return l.Tail(math.MaxInt) }

// Len returns the number of recorded events.
func (l *EventLog) Len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ring.Len()
}

// CountByName returns how many recorded events carry the given name.
func (l *EventLog) CountByName(name string) int {
	n := 0
	for _, e := range l.Events() {
		if e.Name == name {
			n++
		}
	}
	return n
}

// String renders the log one event per line — the canonical fingerprint
// the determinism tests compare across runs.
func (l *EventLog) String() string {
	var b strings.Builder
	for _, e := range l.Events() {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// Tail returns a copy of the last n events (all of them when n exceeds the
// length, none when n is negative).
func (l *EventLog) Tail(n int) []Event {
	if l == nil {
		return []Event{}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	n = min(max(n, 0), l.ring.Len())
	return l.ring.Append(make([]Event, 0, n), n)
}
