package obs

import (
	"sync"

	"vessel/internal/stats"
)

// Registry unifies the repo's two metric primitives — stats.Counters and
// stats histograms — behind one deterministic snapshot type. Counters and
// histograms are registered implicitly on first touch and keep insertion
// order, so a snapshot's rendering is a pure function of the sequence of
// recordings (the same contract stats.Counters already gives).
//
// Registry methods are nil-safe (a disabled observer hands out a nil
// registry) and safe for concurrent use.
type Registry struct {
	mu       sync.Mutex
	counters *stats.Counters
	histName []string
	hists    map[string]*stats.Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{counters: stats.NewCounters(), hists: make(map[string]*stats.Histogram)}
}

// Inc adds one to the named counter.
func (r *Registry) Inc(name string) { r.Add(name, 1) }

// Add adds n to the named counter.
func (r *Registry) Add(name string, n uint64) {
	if r == nil {
		return
	}
	r.counters.Add(name, n)
}

// Counter returns the named counter's current value.
func (r *Registry) Counter(name string) uint64 {
	if r == nil {
		return 0
	}
	return r.counters.Get(name)
}

// Hist returns the named histogram's live handle, creating it on first
// use — the hot-path form of Observe: resolve the name once at setup,
// then Record on the handle without a per-sample lock and map lookup.
func (r *Registry) Hist(name string) *stats.Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = stats.NewHistogram()
		r.hists[name] = h
		r.histName = append(r.histName, name)
	}
	return h
}

// Observe records one sample into the named histogram, creating it on first
// use.
func (r *Registry) Observe(name string, v int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	h, ok := r.hists[name]
	if !ok {
		h = stats.NewHistogram()
		r.hists[name] = h
		r.histName = append(r.histName, name)
	}
	r.mu.Unlock()
	h.Record(v)
}

// merge adds other's counters and histograms into r, registering names r
// has not seen in other's insertion order.
func (r *Registry) merge(other *Registry) {
	r.counters.Merge(other.counters)
	other.mu.Lock()
	names := append([]string(nil), other.histName...)
	hists := make([]*stats.Histogram, len(names))
	for i, n := range names {
		hists[i] = other.hists[n]
	}
	other.mu.Unlock()
	for i, n := range names {
		r.Hist(n).Merge(hists[i])
	}
}

// HistSnapshot is one histogram's summarized state.
type HistSnapshot struct {
	Name    string        `json:"name"`
	Summary stats.Summary `json:"summary"`
}

// Snapshot is the registry's full state at one instant: counters and
// histogram summaries, each in insertion order.
type Snapshot struct {
	Counters []stats.KV     `json:"counters"`
	Hists    []HistSnapshot `json:"hists,omitempty"`
}

// Snapshot captures counters (one lock acquisition, via
// stats.Counters.Snapshot) and histogram summaries in insertion order.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	snap := Snapshot{Counters: r.counters.Snapshot()}
	r.mu.Lock()
	names := make([]string, len(r.histName))
	copy(names, r.histName)
	hists := make([]*stats.Histogram, len(names))
	for i, n := range names {
		hists[i] = r.hists[n]
	}
	r.mu.Unlock()
	for i, n := range names {
		snap.Hists = append(snap.Hists, HistSnapshot{Name: n, Summary: hists[i].Summarize()})
	}
	return snap
}

// String renders "name=value" counter lines then "name: summary" histogram
// lines, in insertion order — the deterministic fingerprint form.
func (s Snapshot) String() string {
	var b []byte
	for _, kv := range s.Counters {
		b = append(b, kv.Name...)
		b = append(b, '=')
		b = appendUint(b, kv.Value)
		b = append(b, '\n')
	}
	for _, h := range s.Hists {
		b = append(b, h.Name...)
		b = append(b, ':', ' ')
		b = append(b, h.Summary.String()...)
		b = append(b, '\n')
	}
	return string(b)
}

func appendUint(b []byte, v uint64) []byte {
	if v == 0 {
		return append(b, '0')
	}
	var tmp [20]byte
	i := len(tmp)
	for v > 0 {
		i--
		tmp[i] = byte('0' + v%10)
		v /= 10
	}
	return append(b, tmp[i:]...)
}
