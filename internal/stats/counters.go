package stats

import (
	"fmt"
	"strings"
	"sync"
)

// Counters is a named-counter set with deterministic iteration order
// (insertion order, not map order) — so rendering a counter set is a pure
// function of the sequence of Inc/Add calls and can be compared across
// runs, like the event log. Counters are safe for concurrent use; as with
// the event log, insertion *order* under concurrent first-touches depends
// on goroutine interleaving, so cross-run fingerprints should come from
// single-threaded recording.
type Counters struct {
	mu     sync.Mutex
	names  []string
	values map[string]uint64
}

// NewCounters returns an empty counter set.
func NewCounters() *Counters {
	return &Counters{values: make(map[string]uint64)}
}

// Inc adds one to the named counter.
func (c *Counters) Inc(name string) { c.Add(name, 1) }

// Add adds n to the named counter, creating it on first use. Values wrap
// around on uint64 overflow.
func (c *Counters) Add(name string, n uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.values[name]; !ok {
		c.names = append(c.names, name)
	}
	c.values[name] += n
}

// Get returns the named counter's value (zero when never touched).
func (c *Counters) Get(name string) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.values[name]
}

// Names returns a copy of the counter names in insertion order.
func (c *Counters) Names() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, len(c.names))
	copy(out, c.names)
	return out
}

// KV is one counter's name and value, as captured by Snapshot.
type KV struct {
	Name  string `json:"name"`
	Value uint64 `json:"value"`
}

// Snapshot returns every counter as name/value pairs in insertion order,
// captured under a single lock acquisition — the consistent-read form for
// callers that would otherwise pair Names() with one Get() per name (one
// lock round-trip each, and values that can shear between reads).
func (c *Counters) Snapshot() []KV {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]KV, len(c.names))
	for i, n := range c.names {
		out[i] = KV{Name: n, Value: c.values[n]}
	}
	return out
}

// Merge folds other's counters into c: every counter of other is added
// to c's counter of the same name, creating it (at c's insertion tail)
// on first touch. Merging goes through other.Snapshot() so the two locks
// are never held together — c.Merge(other) and other.Merge(c) running
// concurrently cannot deadlock. Merge order affects only the insertion
// order of names new to c, never the values: merging the same multiset
// of counter sets yields the same totals.
func (c *Counters) Merge(other *Counters) {
	if other == nil || other == c {
		return
	}
	for _, kv := range other.Snapshot() {
		c.Add(kv.Name, kv.Value)
	}
}

// String renders "name=value" lines in insertion order.
func (c *Counters) String() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var b strings.Builder
	for _, n := range c.names {
		fmt.Fprintf(&b, "%s=%d\n", n, c.values[n])
	}
	return b.String()
}

// Rate tracks a count over a window of virtual time and reports it as an
// operations-per-second rate.
type Rate struct {
	Count   uint64
	Elapsed int64 // nanoseconds
}

// PerSecond returns the rate in operations/second.
func (r Rate) PerSecond() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Count) / (float64(r.Elapsed) / 1e9)
}
