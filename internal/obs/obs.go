// Package obs is the deterministic observability layer of the reproduction:
// a span timeline tracer, a cycle-attribution profiler, and a metrics
// registry, threaded through both fidelity layers (the instruction-stepped
// uProcess machine and the discrete-event scheduling simulators).
//
// Three design rules govern everything here:
//
//   - Determinism. All timestamps are virtual time. Recording order is the
//     simulation's own order, every renderer sorts or iterates in a fixed
//     order, and no wall-clock or map-iteration nondeterminism can reach an
//     export. Two runs with the same seed produce byte-identical timelines,
//     profiles, and Chrome traces — the goldens in export_test.go hold this.
//   - Near-zero cost when disabled. Every method is safe on a nil *Observer
//     and returns immediately; instrumentation sites call through without
//     guarding. The vessel bench guard (internal/vessel/bench_test.go)
//     keeps the disabled path under 2% of the uninstrumented baseline.
//   - Bounded memory. Spans land in per-core trace.Rings that grow to a
//     fixed capacity; a full ring overwrites its oldest span and counts
//     it, so a truncated timeline is never mistaken for a complete one.
package obs

import (
	"fmt"
	"sort"

	"vessel/internal/sim"
	"vessel/internal/trace"
)

// Category classifies a span (and a profiler bucket). The first five
// categories are sched.Activity's values and partition core time — the
// conservation oracle in internal/conformance checks that exactly these sum
// to the run's total simulated cycles. The remaining categories are overlay
// spans (gate crossings, WRPKRU writes, Uintr flight, watchdog kills,
// supervised restarts) that annotate the timeline without being part of the
// partition.
type Category uint8

const (
	CatIdle Category = iota
	CatApp
	CatRuntime
	CatKernel
	CatSwitch
	// Overlay categories below: not part of the core-time partition.
	CatGate
	CatWrPkru
	CatUintr
	CatWatchdog
	CatRestart
	// Self-healing overlays: core fencing, supervised domain recovery,
	// and failsafe policy takeovers.
	CatFence
	CatRecover
	CatFailsafe
	// Virtualized protection keys: slot evictions and refills with their
	// lazy re-tag work.
	CatVPkey
	// Two-level cluster scheduling overlays: core grant/revoke upcall
	// delivery (CatUpcall) and the span a core spends leaving one domain
	// and entering another (CatGrant).
	CatUpcall
	CatGrant
	NumCategories
)

// Activity reports whether the category is one of the five that partition
// core time (the conservation set).
func (c Category) Activity() bool { return c <= CatSwitch }

func (c Category) String() string {
	switch c {
	case CatIdle:
		return "idle"
	case CatApp:
		return "app"
	case CatRuntime:
		return "runtime"
	case CatKernel:
		return "kernel"
	case CatSwitch:
		return "switch"
	case CatGate:
		return "gate"
	case CatWrPkru:
		return "wrpkru"
	case CatUintr:
		return "uintr"
	case CatWatchdog:
		return "watchdog"
	case CatRestart:
		return "restart"
	case CatFence:
		return "fence"
	case CatRecover:
		return "recover"
	case CatFailsafe:
		return "failsafe"
	case CatVPkey:
		return "vpkey"
	case CatUpcall:
		return "upcall"
	case CatGrant:
		return "grant"
	default:
		return fmt.Sprintf("Category(%d)", uint8(c))
	}
}

// ParseCategory is the inverse of String, used by the timeline decoder.
func ParseCategory(s string) (Category, error) {
	for c := Category(0); c < NumCategories; c++ {
		if c.String() == s {
			return c, nil
		}
	}
	return 0, fmt.Errorf("obs: unknown category %q", s)
}

// Span is one begin/end interval in virtual time on one core. A zero-length
// span (End == Start) is an instant marker (a watchdog kill, a dropped
// Uintr).
type Span struct {
	Core  int
	Start sim.Time
	End   sim.Time
	Cat   Category
	// Name names the occupant or subject: an app or uProcess name, a gate
	// function, an event detail. Empty renders as "-".
	Name string
}

// Duration returns the span length.
func (s Span) Duration() sim.Duration { return s.End.Sub(s.Start) }

// ring is one core's span store plus the state that outlives its
// entries.
type ring struct {
	spans trace.Ring[Span]
	// lostEnd is the latest End of any overwritten span: the ring still
	// holds every span of a window that starts at or after it.
	lostEnd sim.Time
}

func (r *ring) add(s Span) {
	if old, evicted := r.spans.Add(s); evicted && old.End > r.lostEnd {
		r.lostEnd = old.End
	}
}

// DefaultPerCore is the default per-core ring capacity.
const DefaultPerCore = 1 << 13

// Observer is the recording hub: per-core span rings, the cycle-attribution
// profiler, and the metrics registry. The zero observer (nil) is the
// disabled state: every method returns immediately.
//
// An Observer is single-writer by design, exactly like the simulation
// engines that feed it; the registry it owns is independently safe for
// concurrent use (it wraps stats.Counters).
type Observer struct {
	perCore int
	rings   []*ring
	// absorbed counts the spans absorbed observers had overwritten.
	absorbed uint64
	prof     Profiler
	reg      *Registry
}

// New returns an enabled observer whose per-core rings hold perCore spans
// each (perCore ≤ 0 selects DefaultPerCore). A core's ring is created on
// the first span it records and grows to that capacity.
func New(perCore int) *Observer {
	if perCore <= 0 {
		perCore = DefaultPerCore
	}
	return &Observer{perCore: perCore, reg: NewRegistry()}
}

// Enabled reports whether the observer records anything.
func (o *Observer) Enabled() bool { return o != nil }

// Reg returns the observer's metrics registry (nil when disabled; the
// registry's methods are themselves nil-safe, so chained calls like
// o.Reg().Inc(...) cost one pointer test when observability is off).
func (o *Observer) Reg() *Registry {
	if o == nil {
		return nil
	}
	return o.reg
}

// Profile returns the cycle-attribution profiler (nil when disabled).
func (o *Observer) Profile() *Profiler {
	if o == nil {
		return nil
	}
	return &o.prof
}

// coreRing returns (allocating on first use) the ring for a core.
func (o *Observer) coreRing(core int) *ring {
	if core < 0 {
		core = 0
	}
	for core >= len(o.rings) {
		o.rings = append(o.rings, nil)
	}
	if o.rings[core] == nil {
		o.rings[core] = &ring{spans: trace.NewRing[Span](o.perCore)}
	}
	return o.rings[core]
}

// Span records one closed interval. Negative-length spans (fault-rewind
// callers) are clamped to instant markers at start and counted under
// obs.charge.clamped rather than corrupting the timeline; zero-length
// spans are kept as instant markers.
func (o *Observer) Span(core int, start, end sim.Time, cat Category, name string) {
	if o == nil {
		return
	}
	if end < start {
		end = start
		o.reg.Inc("obs.charge.clamped")
	}
	o.coreRing(core).add(Span{Core: core, Start: start, End: end, Cat: cat, Name: name})
}

// Mark records an instant marker (a zero-length span).
func (o *Observer) Mark(core int, at sim.Time, cat Category, name string) {
	o.Span(core, at, at, cat, name)
}

// Charge adds d to the profiler bucket (core, name, cat). The scheduling
// accountant calls this with window-clipped durations so the profile obeys
// the conservation law; overlay spans are recorded but never charged. A
// negative charge (fault-rewind callers) is clamped to zero — counted
// under obs.charge.clamped instead of corrupting the conservation totals.
func (o *Observer) Charge(core int, name string, cat Category, d sim.Duration) {
	if o == nil || d == 0 {
		return
	}
	if d < 0 {
		o.reg.Inc("obs.charge.clamped")
		return
	}
	o.prof.charge(core, name, cat, d)
}

// Absorb folds other's retained spans, overwrite counts, profile and
// metrics into o. Spans are replayed core by core in other's recording
// order, so when other overwrote nothing the result is byte-identical to
// having recorded other's run on o directly.
func (o *Observer) Absorb(other *Observer) {
	if o == nil || other == nil {
		return
	}
	for c, r := range other.rings {
		if r == nil {
			continue
		}
		dst := o.coreRing(c)
		for i := range r.spans.Len() {
			dst.add(r.spans.At(i))
		}
		if r.lostEnd > dst.lostEnd {
			dst.lostEnd = r.lostEnd
		}
	}
	o.absorbed += other.Overwritten()
	for k, d := range other.prof.buckets {
		o.prof.charge(k.Core, k.Name, k.Cat, d)
	}
	o.reg.merge(other.reg)
}

// Spans returns every retained span, sorted by (Start, Core, End, Cat,
// Name) — the canonical export order. The sort is stable over each ring's
// recording order, so the result is a pure function of the recorded
// sequence.
func (o *Observer) Spans() []Span {
	if o == nil {
		return nil
	}
	var out []Span
	for _, r := range o.rings {
		if r != nil {
			out = r.spans.Append(out, r.spans.Len())
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.Core != b.Core {
			return a.Core < b.Core
		}
		if a.End != b.End {
			return a.End < b.End
		}
		if a.Cat != b.Cat {
			return a.Cat < b.Cat
		}
		return a.Name < b.Name
	})
	return out
}

// Overwritten returns how many spans were evicted by ring wraparound,
// summed over cores — reported by every exporter so a truncated timeline is
// never mistaken for a complete one.
func (o *Observer) Overwritten() uint64 {
	if o == nil {
		return 0
	}
	n := o.absorbed
	for _, r := range o.rings {
		if r != nil {
			n += r.spans.Overwritten()
		}
	}
	return n
}

// SpanCount returns the number of retained spans.
func (o *Observer) SpanCount() int {
	if o == nil {
		return 0
	}
	n := 0
	for _, r := range o.rings {
		if r != nil {
			n += r.spans.Len()
		}
	}
	return n
}
