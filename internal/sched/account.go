package sched

import (
	"vessel/internal/obs"
	"vessel/internal/obs/journey"
	"vessel/internal/sim"
)

// Activity classifies what a core is doing, for the cycle breakdown: the
// five obs categories that partition core time.
type Activity = obs.Category

const (
	ActIdle    = obs.CatIdle
	ActApp     = obs.CatApp
	ActRuntime = obs.CatRuntime
	ActKernel  = obs.CatKernel
	ActSwitch  = obs.CatSwitch
)

// Accountant accrues per-activity core time clipped to the measurement
// window [From, To]. When Obs is set, every accrued span is also recorded
// as an observability span (unclipped, for the timeline) and charged to the
// cycle-attribution profiler (clipped, so the profile's activity buckets
// exactly partition the measured interval — the conservation oracle in
// internal/conformance depends on every breakdown accrual passing through
// AccrueCore).
type Accountant struct {
	From, To  sim.Time
	Breakdown CycleBreakdown
	Obs       *obs.Observer
	// Journey, when set, receives every switch accrual as a flight-
	// recorder event — the scheduler wakeup→run edges of the causal
	// chain, visible in black-box postmortems.
	Journey *journey.Tracer
}

// AccrueCore is Accrue plus timeline recording for the given core.
func (a *Accountant) AccrueCore(core int, act Activity, t0, t1 sim.Time, label string) {
	a.Accrue(act, t0, t1)
	if t1 <= t0 {
		return
	}
	if a.Obs != nil {
		a.Obs.Span(core, t0, t1, act, label)
		a.Obs.Charge(core, label, act, a.Clip(t0, t1))
	}
	if a.Journey != nil && act == ActSwitch {
		a.Journey.Event(t0, "sched.switch", label)
	}
}

// Accrue charges the span [t0, t1) to the given activity, clipped to the
// measurement window.
func (a *Accountant) Accrue(act Activity, t0, t1 sim.Time) {
	if t1 <= t0 {
		return
	}
	if t0 < a.From {
		t0 = a.From
	}
	if t1 > a.To {
		t1 = a.To
	}
	if t1 <= t0 {
		return
	}
	d := t1.Sub(t0)
	switch act {
	case ActIdle:
		a.Breakdown.IdleNs += d
	case ActApp:
		a.Breakdown.AppNs += d
	case ActRuntime:
		a.Breakdown.RuntimeNs += d
	case ActKernel:
		a.Breakdown.KernelNs += d
	case ActSwitch:
		a.Breakdown.SwitchNs += d
	}
}

// Clip returns the portion of [t0, t1) inside the measurement window.
func (a *Accountant) Clip(t0, t1 sim.Time) sim.Duration {
	if t0 < a.From {
		t0 = a.From
	}
	if t1 > a.To {
		t1 = a.To
	}
	if t1 <= t0 {
		return 0
	}
	return t1.Sub(t0)
}

// BW tracks aggregate memory-bandwidth demand from the apps currently
// running on cores and converts oversubscription into a service-time
// inflation factor (the simple linear contention model of DESIGN.md §3).
type BW struct {
	// CapacityGBs is the machine's memory bandwidth in GB/s (bytes/ns).
	CapacityGBs float64
	demand      float64
}

// Add registers demand (GB/s).
func (b *BW) Add(gbs float64) { b.demand += gbs }

// Remove deregisters demand.
func (b *BW) Remove(gbs float64) {
	b.demand -= gbs
	if b.demand < 1e-9 {
		b.demand = 0
	}
}

// Demand returns the current aggregate demand in GB/s.
func (b *BW) Demand() float64 { return b.demand }

// Inflation returns the current service-time inflation factor ≥ 1.
func (b *BW) Inflation() float64 {
	if b.CapacityGBs <= 0 || b.demand <= b.CapacityGBs {
		return 1
	}
	return b.demand / b.CapacityGBs
}

// stallPerOversubscription scales DRAM-queueing stalls: mean extra stall
// per request per unit of oversubscription.
const stallPerOversubscription = 2000 // ns

// StallNoise samples the DRAM-queueing stall a request suffers when the
// memory system is oversubscribed: beyond capacity, request latency does
// not just scale by the linear Inflation factor — queueing in the memory
// controller adds heavy-tailed stalls proportional to the oversubscription.
// This is the §6.3.4 motivation for regulating B-app bandwidth at all:
// unregulated membench wrecks the L-app's *tail*, not just its mean.
func (b *BW) StallNoise(rng *sim.RNG) sim.Duration {
	if b.CapacityGBs <= 0 || b.demand <= b.CapacityGBs {
		return 0
	}
	over := b.demand/b.CapacityGBs - 1
	return rng.Exp(sim.Duration(over * stallPerOversubscription))
}
